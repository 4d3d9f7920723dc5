//! Extension: tail access latency (p50/p95/p99) per scheme.
//! Exits 1 if the sweep fails (the failing cell is reported on stderr).
fn main() {
    if bda_bench::experiments::ext_tails::run(&bda_bench::Cli::parse()).is_err() {
        std::process::exit(1);
    }
}
