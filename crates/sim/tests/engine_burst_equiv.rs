//! A degenerate burst channel is the i.i.d. channel: a Gilbert–Elliott
//! chain whose two states lose at the same rate reuses the i.i.d. model's
//! per-bucket draws bit for bit. (Driver agreement under burst loss and
//! outages is `crates/bench/tests/engine_burst_equiv.rs`, through the
//! conformance wall.)

use bda_core::{BurstModel, ChannelModel, DynSystem, ErrorModel, Key, Params, RetryPolicy, Ticks};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, SchemeKind};

/// Every scheme family in the repo, including the composite hybrid.
fn all_systems(ds: &bda_core::Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, p).unwrap()).into()
}

/// A deterministic request mix: unsorted arrivals with collisions, present
/// and absent keys interleaved.
fn request_mix(ds: &bda_core::Dataset, pool: &[Key], n: usize) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = ((i * 6151) % 9000) as Ticks;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t, key)
        })
        .collect()
}

/// A Gilbert–Elliott chain whose two states lose at the same rate *is*
/// the i.i.d. channel: with `loss_good == loss_bad` and the same seed the
/// per-bucket draws are reused bit for bit, so the whole run — outcomes,
/// access, tuning, retries — matches `ErrorModel` exactly. This is the
/// degenerate-configs-are-free guarantee at the engine level.
#[test]
fn degenerate_burst_is_bit_identical_to_iid() {
    let (ds, pool) = DatasetBuilder::new(60, 0xB1257)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 72);
    let seed = 0xFA57;
    let air = ChannelModel::from(ErrorModel::new(0.15, seed));
    let degenerate = ChannelModel::burst(BurstModel::new(0.3, 0.2, 0.15, 0.15, seed));
    for policy in [RetryPolicy::UNBOUNDED, RetryPolicy::bounded(2)] {
        for sys in all_systems(&ds, &params) {
            let iid = Engine::with_channel(sys.as_ref(), air, policy).run_batch(&requests);
            let burst = Engine::with_channel(sys.as_ref(), degenerate, policy).run_batch(&requests);
            assert_eq!(
                iid,
                burst,
                "{}: degenerate burst drifted from i.i.d.",
                sys.scheme_name()
            );
        }
    }
}
