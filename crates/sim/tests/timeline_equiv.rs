//! Time-resolved telemetry differential suite.
//!
//! Keystone properties of the windowed [`bda_obs::TimeSeries`] layer:
//!
//! 1. **Aggregate exactness**: summed over all windows (plus the evicted
//!    fold), every per-window counter equals the end-of-run aggregates —
//!    `EngineStats`, the hub's histograms and the phase-span totals — on
//!    all eight schemes, lossless, lossy and churning. Not approximately:
//!    bit for bit.
//! 2. **No-op equivalence**: turning windowed observation on does not
//!    perturb a single outcome.
//! 3. **Shard invariance**: the merged per-window outcome counters of a
//!    sharded windowed run equal the single-engine ones window by
//!    window, for every shard count — including under tight retention,
//!    where merge-then-trim must agree with online trimming.
//! 4. **Pure sampling**: which requests a trace samples is a function of
//!    `(seed, request index)` only, so shard placement cannot change a
//!    trace.

use bda_core::{
    ChannelModel, Dataset, DynSystem, ErrorModel, Key, Params, RetryPolicy, Scheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_obs::{sample_indices, MetricsHub, WindowSpec, WindowStats};
use bda_sim::{Engine, SchemeKind, ShardedEngine, UpdateSpec, VersionedServer};

fn all_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, p).unwrap()).into()
}

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

/// Assert every window-sum invariant of a windowed hub against the plain
/// run it shadowed.
fn assert_totals_exact(
    name: &str,
    what: &str,
    hub: &MetricsHub,
    plain: &[bda_sim::CompletedRequest],
    stats: bda_sim::EngineStats,
) {
    let series = hub
        .windows
        .as_ref()
        .unwrap_or_else(|| panic!("{name} [{what}]: windowed run must carry a series"));
    let totals = series.totals();
    let ctx = format!("{name} [{what}]");
    assert_eq!(totals.completions, stats.completed, "{ctx}: completions");
    assert_eq!(totals.completions, hub.completed, "{ctx}: hub completed");
    assert_eq!(totals.found, hub.found, "{ctx}: found");
    assert_eq!(totals.abandoned, stats.abandoned, "{ctx}: abandoned");
    assert_eq!(
        totals.corrupt_reads, stats.corrupt_reads,
        "{ctx}: corrupt reads"
    );
    assert_eq!(
        totals.stale_restarts, stats.stale_restarts,
        "{ctx}: stale restarts"
    );
    assert_eq!(
        totals.version_skews, stats.version_skews,
        "{ctx}: version skews"
    );
    assert_eq!(totals.wake_batches, stats.wake_batches, "{ctx}: batches");
    assert!(
        totals.in_flight_high as usize <= stats.peak_in_flight,
        "{ctx}: windowed high-water above the true peak"
    );
    // Tick accounting telescopes to the histograms and span totals.
    assert_eq!(
        u128::from(totals.access_ticks),
        hub.access.sum(),
        "{ctx}: access ticks"
    );
    assert_eq!(
        u128::from(totals.tuning_ticks),
        hub.tuning.sum(),
        "{ctx}: tuning ticks"
    );
    assert_eq!(totals.spans, hub.spans, "{ctx}: per-window phase spans");
    // Busy periods cover every completed walk (abandoned walks charge
    // their final, never-walked corrupted read to access, so only
    // non-abandoned walks are guaranteed full busy coverage) and never
    // exceed the simulated horizon.
    let horizon = plain
        .iter()
        .map(|r| r.arrival + r.outcome.access)
        .max()
        .unwrap_or(0);
    let longest = plain
        .iter()
        .filter(|r| !r.outcome.abandoned)
        .map(|r| r.outcome.access)
        .max()
        .unwrap_or(0);
    assert!(totals.busy_ticks >= longest, "{ctx}: busy ticks < a walk");
    assert!(totals.busy_ticks <= horizon, "{ctx}: busy ticks > horizon");
    // Per-window sanity: no window holds more busy ticks than its width.
    for (id, w) in series.windows() {
        assert!(
            w.busy_ticks <= series.width(),
            "{ctx}: window {id} busier than its width"
        );
    }
}

/// Window sums equal end-of-run aggregates exactly on all eight schemes,
/// lossless and at 15 % loss with an abandoning policy — and windowed
/// observation never perturbs outcomes.
#[test]
fn window_sums_equal_aggregates_on_every_scheme() {
    let (ds, pool) = DatasetBuilder::new(60, 0x71E5)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy, what) in [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED, "lossless"),
        (
            ChannelModel::from(ErrorModel::new(0.15, 0xFA57)),
            RetryPolicy::bounded(2),
            "15% loss",
        ),
    ] {
        for sys in all_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 8 * sys.cycle_len());
            let plain = Engine::with_channel(sys.as_ref(), channel, policy).run_batch(&requests);
            let mut engine = Engine::with_channel(sys.as_ref(), channel, policy);
            engine.enable_metrics_windowed(WindowSpec::new(sys.cycle_len()));
            let observed = engine.run_batch(&requests);
            let hub = engine.take_metrics().expect("metrics were enabled");
            assert_eq!(
                plain,
                observed,
                "{}: windowed observation perturbed outcomes",
                sys.scheme_name()
            );
            assert_totals_exact(sys.scheme_name(), what, &hub, &plain, engine.stats());
        }
    }
}

/// Same exactness under 20 % churn on a [`VersionedServer`]: stale
/// restarts and version skews attribute to windows without losing a
/// single count.
#[test]
fn window_sums_stay_exact_under_churn() {
    let (ds, pool) = DatasetBuilder::new(60, 0x5EED)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    let server = VersionedServer::build(&bda_core::FlatScheme, &ds, &params, spec).unwrap();
    let span = server.timeline().epochs().last().map_or(0, |e| e.start)
        + 4 * DynSystem::cycle_len(&server);
    let requests = request_mix(&ds, &pool, 80, span);
    for (channel, what) in [
        (ChannelModel::NONE, "20% churn"),
        (
            ChannelModel::from(ErrorModel::new(0.10, 0x717)),
            "20% churn + loss",
        ),
    ] {
        let policy = RetryPolicy::UNBOUNDED;
        let plain = Engine::with_channel(&server, channel, policy).run_batch(&requests);
        let mut engine = Engine::with_channel(&server, channel, policy);
        engine.enable_metrics_windowed(WindowSpec::new(DynSystem::cycle_len(&server)));
        let observed = engine.run_batch(&requests);
        let hub = engine.take_metrics().expect("metrics were enabled");
        assert_eq!(plain, observed, "[{what}]: observation perturbed outcomes");
        let mut engine = Engine::with_channel(&server, channel, policy);
        engine.enable_metrics_windowed(WindowSpec::new(DynSystem::cycle_len(&server)));
        engine.run_batch(&requests);
        assert_totals_exact("versioned-flat", what, &hub, &plain, engine.stats());
        assert!(
            hub.windows.as_ref().unwrap().totals().version_skews > 0,
            "[{what}]: churn must produce version skews to attribute"
        );
    }
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

/// The merged per-window outcome counters of a sharded windowed run equal
/// the single-engine ones window by window for shard counts {1, 2, 3, 7},
/// with and without tight retention.
#[test]
fn per_window_counters_are_shard_count_invariant() {
    let (ds, pool) = DatasetBuilder::new(60, 0x5A4D)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let sys = bda_btree::DistributedScheme::new()
        .build(&ds, &params)
        .unwrap();
    let channel = ChannelModel::from(ErrorModel::new(0.10, 0xC0DE));
    let policy = RetryPolicy::bounded(3);
    let requests = request_mix(&ds, &pool, 160, 12 * DynSystem::cycle_len(&sys));

    for spec in [
        WindowSpec::new(DynSystem::cycle_len(&sys)),
        WindowSpec::new(96).with_retain(6),
    ] {
        let mut single = Engine::with_channel(&sys, channel, policy);
        single.enable_metrics_windowed(spec);
        let baseline = single.run_batch(&requests);
        let single_hub = single.take_metrics().unwrap();
        let single_series = single_hub.windows.as_ref().unwrap();

        for shards in [1usize, 2, 3, 7] {
            let mut engine = ShardedEngine::with_channel(&sys, shards, channel, policy);
            engine.enable_metrics_windowed(spec);
            let outcomes = engine.run_batch(&requests);
            assert_eq!(baseline, outcomes, "shards={shards}: outcomes diverged");
            let merged = engine.take_metrics().expect("metrics were enabled");
            let series = merged.windows.as_ref().unwrap();
            assert_eq!(
                series.totals().outcome_counters(),
                single_series.totals().outcome_counters(),
                "shards={shards}: totals diverged"
            );
            assert_eq!(
                series.watermark(),
                single_series.watermark(),
                "shards={shards}: watermark diverged"
            );
            assert_eq!(
                series.evicted().outcome_counters(),
                single_series.evicted().outcome_counters(),
                "shards={shards}: evicted fold diverged"
            );
            let merged_windows: Vec<(u64, [u64; 8])> = series
                .windows()
                .map(|(id, w)| (id, w.outcome_counters()))
                .collect();
            let single_windows: Vec<(u64, [u64; 8])> = single_series
                .windows()
                .map(|(id, w)| (id, w.outcome_counters()))
                .collect();
            assert_eq!(
                merged_windows, single_windows,
                "shards={shards}: per-window outcome counters diverged"
            );
        }
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
