//! Ablation: hash-function quality and load factor.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ablations::ablation_hash);
}
