//! Fast-forward's event collapse and its edges. (That fast-forward changes
//! no outcome, counter or span, agrees with the reference oracle and on a
//! churning program still sheds events is
//! `crates/bench/tests/ff_equiv.rs`, through the conformance wall.)
//!
//! 1. **Event collapse**: with fast-forward on, the scan-heavy schemes
//!    (flat, signature family) process dramatically fewer scheduler
//!    events for the same work — on one channel and on broadcast disks,
//!    and within each epoch of a churning program. It is the mechanism
//!    behind the requests-per-second repair, so it is asserted, not just
//!    measured.
//! 2. **The edges**: arrivals packed around cycle boundaries under heavy
//!    loss (where a jump that lands one bucket off would swallow a
//!    corruption), and near `Ticks::MAX`, where the walker disengages
//!    fast-forward rather than overflow, stay exact.

use bda_core::{
    ChannelModel, Dataset, DiskConfig, DynSystem, ErrorModel, Key, Params, RetryPolicy, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{CompletedRequest, Engine, Layout, SchemeKind, UpdateSpec};

/// Every scheme family in the repo, including the composite hybrid.
fn all_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, p).unwrap()).into()
}

/// Deterministic request mix over `span` ticks starting at `base`:
/// unsorted arrivals with collisions, every sixth key absent.
fn request_mix(
    ds: &Dataset,
    pool: &[Key],
    n: usize,
    base: Ticks,
    span: Ticks,
) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (base + t % span.max(1), key)
        })
        .collect()
}

/// Run a batch on a slab engine with fast-forward pinned on or off,
/// returning the outcomes and the number of scheduler events consumed.
fn run_with_ff(
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    ff: bool,
) -> (Vec<CompletedRequest>, u64) {
    let mut engine = Engine::with_channel(sys, channel, policy);
    engine.set_fast_forward(ff);
    let done = engine.run_batch(requests);
    (done, engine.stats().events)
}

/// The point of the layer: scan-heavy schemes collapse from O(cycle)
/// wake-ups per request to a small constant. On a lossless channel the
/// fast engine must spend well under a tenth of the slow engine's events
/// on flat and the whole signature family, and on flat broadcast disks;
/// on a churning program (20 % per cycle) scans still shed events, since
/// a walk fast-forwards within each epoch.
#[test]
fn fast_forward_collapses_events_on_scan_heavy_schemes() {
    // Large enough that O(cycle) vs O(1) dominates the constant factors:
    // integrated/multilevel already doze whole frames bucket-by-bucket, so
    // their slow-path event count grows with the *frame* count, not the
    // bucket count.
    let (ds, pool) = DatasetBuilder::new(320, 0x0FF2)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let churn = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    let disks = Layout::Disks(DiskConfig::new(3));
    let cases = [
        SchemeKind::Flat,
        SchemeKind::Signature,
        SchemeKind::IntegratedSignature,
        SchemeKind::MultiLevelSignature,
    ]
    .into_iter()
    .flat_map(|k| [(k, Layout::Single, None), (k, Layout::Single, Some(churn))])
    .chain([(SchemeKind::Flat, disks, None)]);
    for (kind, layout, churn) in cases {
        let sys = kind
            .build_on(&ds, &params, &layout, churn)
            .unwrap()
            .unwrap();
        let name = format!("{} on {layout:?}, churn {churn:?}", kind.name());
        let requests = request_mix(&ds, &pool, 72, 0, 8 * sys.cycle_len());
        let air = (ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        let (fast, fast_events) = run_with_ff(sys.as_ref(), &requests, air.0, air.1, true);
        let (slow, slow_events) = run_with_ff(sys.as_ref(), &requests, air.0, air.1, false);
        assert_eq!(fast, slow, "{name}: outcomes diverged");
        let collapse = if churn.is_some() { 2 } else { 10 };
        assert!(
            fast_events * collapse <= slow_events,
            "{name}: expected ≥{collapse}× event collapse, got {slow_events} → {fast_events}"
        );
    }
}

/// Fault instants are a pure function of (bucket instant, seed): a jump
/// that mis-lands by even one bucket shifts which reads are corrupted and
/// the retry counters betray it. Drive every scheme at 30 % loss with
/// arrivals packed around cycle boundaries and assert the degradation
/// counters — retries, false drops, abandonments — tie out exactly.
#[test]
fn fast_forward_never_skips_a_corruption_event() {
    let (ds, pool) = DatasetBuilder::new(48, 0x0FF3)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let air = ChannelModel::from(ErrorModel::new(0.30, 0xC0DE));
    let policy = RetryPolicy::bounded(3);
    for sys in all_systems(&ds, &params) {
        let cycle = sys.cycle_len();
        // Arrivals hugging k·cycle from both sides, plus exact boundaries.
        let mut requests: Vec<(Ticks, Key)> = Vec::new();
        let keys: Vec<Key> = ds.keys().collect();
        for k in 1..9u64 {
            for d in [0i64, 1, -1, 2, -2, 7, -7] {
                let t = (k * cycle).saturating_add_signed(d);
                let i = requests.len();
                let key = if i % 5 == 0 {
                    pool[i % pool.len()]
                } else {
                    keys[(i * 37) % keys.len()]
                };
                requests.push((t, key));
            }
        }
        let (fast, _) = run_with_ff(sys.as_ref(), &requests, air, policy, true);
        let (slow, _) = run_with_ff(sys.as_ref(), &requests, air, policy, false);
        let name = sys.scheme_name();
        assert_eq!(fast, slow, "{name}: boundary arrivals diverged under loss");
        let retries: u32 = slow.iter().map(|r| r.outcome.retries).sum();
        assert!(retries > 0, "{name}: the 30% channel must actually corrupt");
    }
}

/// Clock-edge safety: with arrivals a few dozen cycles below `Ticks::MAX`
/// the walker must disengage fast-forward rather than overflow, and the
/// outcomes still match the bucket-by-bucket engine exactly.
#[test]
fn fast_forward_is_exact_near_ticks_max() {
    let (ds, pool) = DatasetBuilder::new(48, 0x0FF4)
        .build_with_absent_pool(8)
        .unwrap();
    let params = Params::paper();
    let air = ChannelModel::from(ErrorModel::new(0.15, 0xFA57));
    let policy = RetryPolicy::bounded(2);
    for sys in all_systems(&ds, &params) {
        let cycle = sys.cycle_len();
        let base = Ticks::MAX - 64 * cycle;
        let requests = request_mix(&ds, &pool, 48, base, 4 * cycle);
        let (fast, _) = run_with_ff(sys.as_ref(), &requests, air, policy, true);
        let (slow, _) = run_with_ff(sys.as_ref(), &requests, air, policy, false);
        assert_eq!(
            fast,
            slow,
            "{}: outcomes diverged near Ticks::MAX",
            sys.scheme_name()
        );
    }
}
