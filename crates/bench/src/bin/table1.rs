//! Regenerates Table 1 (simulation settings).
fn main() {
    bda_bench::run_main(bda_bench::experiments::table1::run);
}
