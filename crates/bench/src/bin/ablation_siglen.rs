//! Ablation: signature length (access vs tuning tradeoff).
fn main() {
    bda_bench::run_main(bda_bench::experiments::ablations::ablation_siglen);
}
