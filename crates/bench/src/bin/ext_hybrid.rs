//! Extension: hybrid index-tree + signature scheme vs its parents.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ext_hybrid::run);
}
