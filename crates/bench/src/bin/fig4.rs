//! Regenerates Fig. 4(a)+(b): access/tuning time vs number of records.
fn main() {
    bda_bench::run_main(bda_bench::experiments::fig4::run);
}
