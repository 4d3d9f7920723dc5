//! Regenerates Fig. 5(a)+(b): access/tuning time vs data availability.
//! Exits 1 if the sweep fails (the failing cell is reported on stderr).
fn main() {
    if bda_bench::experiments::fig5::run(&bda_bench::Cli::parse()).is_err() {
        std::process::exit(1);
    }
}
