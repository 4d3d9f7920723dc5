//! Regenerates Fig. 6(a)+(b): access/tuning time vs record/key ratio.
fn main() {
    bda_bench::run_main(bda_bench::experiments::fig6::run);
}
