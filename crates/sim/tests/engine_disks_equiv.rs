//! Broadcast disks pay off under skewed demand: every stratified program
//! beats its flat cycle on the engine. (Driver agreement on stratified
//! programs is `crates/bench/tests/engine_disks_equiv.rs`, through the
//! conformance wall.)

use bda_core::{DiskConfig, DynSystem, Key, Params, Ticks};
use bda_datagen::{DatasetBuilder, Popularity, Prng, QueryWorkload};
use bda_sim::{Engine, Layout, SchemeKind};

/// The stratification depth under test. (D = 1 bit-identity is pinned by
/// the property suite in `bda-core` and per-scheme wrapper tests.)
const DISKS: usize = 3;

/// The point of stratification, on the engine: present keys drawn
/// Zipf(1.2) and tuned in uniformly over eight major cycles (a burst at
/// one instant would flatter the flat cycle, whose hottest record airs
/// first) wait less on the `D = 3` program than on the flat cycle, for
/// every disk-capable scheme.
#[test]
fn stratified_programs_beat_the_flat_cycle_under_zipf_demand() {
    let ds = DatasetBuilder::new(1_000, 11).build().unwrap();
    let params = Params::paper();
    let disks = Layout::Disks(DiskConfig::new(DISKS));
    let mean_access = |sys: &dyn DynSystem, requests: &[(Ticks, Key)]| {
        let done = Engine::new(sys).run_batch(requests);
        assert!(
            done.iter().all(|r| r.outcome.found),
            "{}",
            sys.scheme_name()
        );
        done.iter().map(|r| r.outcome.access as f64).sum::<f64>() / done.len() as f64
    };
    for kind in SchemeKind::ALL.into_iter().filter(|k| k.has_disks()) {
        let flat = kind.build(&ds, &params).unwrap();
        let stratified = kind.build_on(&ds, &params, &disks, None).unwrap().unwrap();
        let span = 8 * stratified.cycle_len();
        let mut workload = QueryWorkload::new(&ds, Vec::new(), 1.0, Popularity::Zipf(1.2), 13);
        let mut tune_in = Prng::new(13 ^ 0x5EED);
        let requests: Vec<(Ticks, Key)> = (0..2_000)
            .map(|_| (tune_in.below(span), workload.next_key()))
            .collect();
        let (flat_at, disks_at) = (
            mean_access(flat.as_ref(), &requests),
            mean_access(stratified.as_ref(), &requests),
        );
        assert!(
            disks_at < flat_at,
            "{}: D = {DISKS} mean access {disks_at:.0} must beat the flat cycle's {flat_at:.0}",
            kind.name()
        );
    }
}
