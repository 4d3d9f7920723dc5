//! Extension: multichannel broadcast — channel groups, tune-switch
//! costs, and the air-time allocator at equal aggregate bandwidth.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ext_multichannel::run);
}
