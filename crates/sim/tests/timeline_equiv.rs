//! Three properties of the [`bda_obs::TimeSeries`] layer (window totals
//! and per-window counters under every driver are
//! `crates/bench/tests/timeline_equiv.rs`, through the conformance wall):
//!
//! 1. **Retention loses no count**: windows evicted under tight retention
//!    fold into the evicted accumulator, never into the void.
//! 2. **Grouping-insensitive merge**: per-shard hubs merged in any
//!    grouping give the same series.
//! 3. **Pure sampling**: which requests a trace samples is a function of
//!    `(seed, request index)` only, so shard placement cannot change a
//!    trace.

use bda_core::{Dataset, DynSystem, Key, Params, Scheme, Ticks};
use bda_datagen::DatasetBuilder;
use bda_obs::{sample_indices, MetricsHub, WindowSpec, WindowStats};
use bda_sim::{Engine, ShardedEngine};

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

/// Totals stay exact even when retention is far too small to keep every
/// window live: evicted windows fold into the evicted accumulator, never
/// into the void.
#[test]
fn tight_retention_never_loses_a_count() {
    let ds = DatasetBuilder::new(80, 0x0417).build().unwrap();
    let params = Params::paper();
    let sys = bda_hash::HashScheme::new().build(&ds, &params).unwrap();
    let requests = request_mix(&ds, &[Key(1)], 200, 40 * DynSystem::cycle_len(&sys));
    // Small windows + retain 4: almost everything is evicted online.
    let spec = WindowSpec::new(64).with_retain(4);
    let mut full = Engine::new(&sys);
    full.enable_metrics_windowed(WindowSpec::new(64));
    full.run_batch(&requests);
    let full_hub = full.take_metrics().unwrap();
    let mut tight = Engine::new(&sys);
    tight.enable_metrics_windowed(spec);
    let observed = tight.run_batch(&requests);
    let tight_hub = tight.take_metrics().unwrap();
    assert_eq!(observed.len(), requests.len());
    let tight_series = tight_hub.windows.as_ref().unwrap();
    assert!(tight_series.len() <= 4, "retention must actually trim");
    assert!(
        tight_series.evicted().completions > 0,
        "the fold must have absorbed evicted windows"
    );
    assert_eq!(
        tight_series.totals(),
        full_hub.windows.as_ref().unwrap().totals(),
        "trimmed and untrimmed series must agree on totals"
    );
    // Live windows that survived trimming are identical to the full run's.
    for (id, w) in tight_series.windows() {
        assert_eq!(
            Some(w),
            full_hub.windows.as_ref().unwrap().window(id),
            "live window {id} diverged under retention"
        );
    }
}

/// `MetricsHub::merged` window folding is associative and
/// order-insensitive on the shard-invariant projection — merging the
/// per-shard hubs by hand in any grouping gives the same series.
#[test]
fn hub_window_merge_is_grouping_insensitive() {
    let ds = DatasetBuilder::new(50, 0x1357).build().unwrap();
    let params = Params::paper();
    let sys = bda_core::FlatScheme.build(&ds, &params).unwrap();
    let requests = request_mix(&ds, &[Key(1)], 120, 10 * DynSystem::cycle_len(&sys));
    let spec = WindowSpec::new(128);
    let mut engine = ShardedEngine::new(&sys, 3);
    engine.enable_metrics_windowed(spec);
    engine.run_batch(&requests);
    let hubs = engine.take_shard_metrics();
    assert_eq!(hubs.len(), 3);

    let left_fold = MetricsHub::merged(hubs.clone()).unwrap();
    let mut right_fold = hubs[2].clone();
    right_fold.merge(&hubs[1]);
    right_fold.merge(&hubs[0]);
    let a = left_fold.windows.as_ref().unwrap();
    let b = right_fold.windows.as_ref().unwrap();
    let proj = |s: &bda_obs::TimeSeries| -> Vec<(u64, [u64; 8])> {
        s.windows()
            .map(|(id, w)| (id, w.outcome_counters()))
            .collect()
    };
    assert_eq!(proj(a), proj(b), "fold order changed the window series");
    assert_eq!(a.totals().outcome_counters(), b.totals().outcome_counters());
}

/// Trace sampling is a pure function of `(seed, index)` — recomputing the
/// selection for the same request stream always picks the same requests,
/// and the count never exceeds the stream.
#[test]
fn trace_sampling_is_reproducible_for_a_request_stream() {
    let n = 5_000u64;
    for seed in [0u64, 0xBEEF, u64::MAX] {
        let a = sample_indices(seed, n, 32);
        let b = sample_indices(seed, n, 32);
        assert_eq!(a, b, "seed={seed:#x}: sampling must be pure");
        assert_eq!(a.len(), 32);
        assert!(a.iter().all(|&i| i < n));
    }
    // The default WindowStats is all-zero — the identity of merge.
    let mut w = WindowStats::default();
    w.merge(&WindowStats::default());
    assert_eq!(w, WindowStats::default());
}
