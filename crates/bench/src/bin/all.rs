//! Runs every experiment in sequence: Table 1, Figs. 4-6, all ablations.
//! Exits 1 if any sweep failed, after running the rest.
fn main() {
    let cli = bda_bench::Cli::parse();
    use bda_bench::experiments::*;
    let mut failed = false;
    table1::run(&cli);
    println!();
    failed |= fig4::run(&cli).is_err();
    println!();
    failed |= fig5::run(&cli).is_err();
    println!();
    failed |= fig6::run(&cli).is_err();
    println!();
    ablations::ablation_r(&cli);
    println!();
    ablations::ablation_m(&cli);
    println!();
    ablations::ablation_siglen(&cli);
    println!();
    ablations::ablation_hash(&cli);
    println!();
    ext_errors::run(&cli);
    println!();
    ext_disks::run(&cli);
    println!();
    ext_hybrid::run(&cli);
    println!();
    ext_multichannel::run(&cli);
    println!();
    failed |= ext_tails::run(&cli).is_err();
    println!();
    ext_phases::run(&cli);
    if failed {
        std::process::exit(1);
    }
}
