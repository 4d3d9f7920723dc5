//! Runs every experiment in sequence: Table 1, Figs. 4-6, the ablations
//! and the extensions. Exits 1 if any failed, after running the rest.
fn main() {
    let cli = bda_bench::Cli::parse();
    use bda_bench::experiments::*;
    let runs: [fn(&bda_bench::Cli) -> Outcome; 14] = [
        table1::run,
        fig4::run,
        fig5::run,
        fig6::run,
        ablations::ablation_r,
        ablations::ablation_m,
        ablations::ablation_siglen,
        ablations::ablation_hash,
        ext_errors::run,
        ext_disks::run,
        ext_hybrid::run,
        ext_multichannel::run,
        ext_tails::run,
        ext_phases::run,
    ];
    let mut failed = false;
    for (i, run) in runs.iter().enumerate() {
        if i > 0 {
            println!();
        }
        failed |= run(&cli).is_err();
    }
    if failed {
        std::process::exit(1);
    }
}
