//! Ablation: (1,m)-indexing segment count m.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ablations::ablation_m);
}
