//! Extension: tail access latency (p50/p95/p99) per scheme.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ext_tails::run);
}
