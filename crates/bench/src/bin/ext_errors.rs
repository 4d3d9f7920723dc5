//! Extension: access methods over an error-prone (lossy) channel.
fn main() {
    bda_bench::run_main(bda_bench::experiments::ext_errors::run);
}
