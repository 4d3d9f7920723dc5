//! Ablation: distributed-indexing replication depth r.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ablations::ablation_r);
}
