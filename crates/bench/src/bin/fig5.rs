//! Regenerates Fig. 5(a)+(b): access/tuning time vs data availability.
fn main() {
    bda_bench::run_main(bda_bench::experiments::fig5::run);
}
