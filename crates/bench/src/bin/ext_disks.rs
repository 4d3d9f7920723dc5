//! Extension: broadcast-disk stratification under skewed demand.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ext_disks::run);
}
