//! Extension: per-phase tuning-time breakdown across all schemes.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ext_phases::run);
}
