//! The phase mix reflects each scheme's structure (index-navigating
//! schemes split their tuning between index traversal and data reads, and
//! the flat broadcast never traverses an index), and the simulator's
//! observed run reports what its plain run does. (Span accounting under
//! every driver and recorder is `crates/bench/tests/obs_equiv.rs`,
//! through the conformance wall.)

use bda_core::{ChannelModel, Dataset, DynSystem, Key, Params, Phase, RetryPolicy, Scheme, Ticks};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, SchemeKind, SimConfig, Simulator};

/// Every scheme family in the repo, including the composite hybrid.
fn all_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, p).unwrap()).into()
}

/// A deterministic request mix: unsorted arrivals with collisions, present
/// and absent keys interleaved.
fn request_mix(ds: &Dataset, pool: &[Key], n: usize, span: Ticks) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t % span.max(1), key)
        })
        .collect()
}

/// Index-navigating schemes split their tuning time between the index
/// traversal and data-read phases; the flat broadcast (no index) never
/// reports an `IndexTraversal` span.
#[test]
fn phase_mix_reflects_each_schemes_structure() {
    let ds = DatasetBuilder::new(200, 0x111).build().unwrap();
    let params = Params::paper();
    for sys in all_systems(&ds, &params) {
        let requests = request_mix(&ds, &[Key(1)], 60, 8 * sys.cycle_len());
        let mut engine =
            Engine::with_channel(sys.as_ref(), ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        engine.enable_metrics();
        engine.run_batch(&requests);
        let hub = engine.take_metrics().expect("metrics were enabled");
        let idx = hub.spans.get(Phase::IndexTraversal);
        let name = sys.scheme_name();
        if name == "flat" {
            assert_eq!(idx.count, 0, "flat broadcast has no index to traverse");
        } else {
            assert!(
                idx.count > 0,
                "{name}: indexed scheme never probed its index"
            );
            assert!(
                hub.spans.get(Phase::Doze).access > 0,
                "{name}: selective tuning must doze"
            );
        }
    }
}

/// The simulator's observed run agrees with its plain run on a non-flat
/// scheme driven through the full accuracy-controlled testbed.
#[test]
fn simulator_observed_run_is_equivalent_on_an_indexed_scheme() {
    let ds = DatasetBuilder::new(150, 0x222).build().unwrap();
    let sys = bda_btree::DistributedScheme::new()
        .build(&ds, &Params::paper())
        .unwrap();
    let mut cfg = SimConfig::quick();
    cfg.min_rounds = 2;
    cfg.max_rounds = 2;
    let plain = Simulator::uniform(&sys, &ds, cfg).run();
    let (observed, hub) = Simulator::uniform(&sys, &ds, cfg).run_observed();
    assert_eq!(plain.access, observed.access);
    assert_eq!(plain.tuning, observed.tuning);
    assert_eq!(hub.completed, observed.requests);
    assert_eq!(u128::from(hub.spans.total_access()), hub.access.sum());
    assert_eq!(u128::from(hub.spans.total_tuning()), hub.tuning.sum());
    // The distributed index actually shows up in the phase mix.
    assert!(hub.spans.get(Phase::IndexTraversal).tuning > 0);
    assert!(hub.spans.get(Phase::DataRead).tuning > 0);
}
