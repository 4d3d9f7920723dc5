//! Observability differential suite.
//!
//! Two keystone properties of the zero-overhead observability layer:
//!
//! 1. **No-op equivalence**: switching observation on must not perturb a
//!    single outcome — the observed engine, the plain engine, and the
//!    recorded direct walker are *bit-identical*, request by request, on
//!    every scheme, lossless and lossy, frozen and churning.
//! 2. **Exact span accounting**: the per-phase walk spans telescope —
//!    summed across phases they equal the measured access and tuning
//!    times exactly (not approximately), and phase counters tie out to
//!    the walker's own degradation counters (corrupt reads ↔ `Retry`
//!    spans, version skews ↔ `StaleRecovery` spans).

use bda_core::{
    ChannelModel, Dataset, DynSystem, ErrorModel, Key, Params, Phase, RetryPolicy, Scheme, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{
    Engine, SchemeKind, SchemeVisitor, SimConfig, Simulator, UpdateSpec, VersionedServer,
};

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

/// Observation never perturbs an outcome, and the spans account for every
/// tick, on all eight schemes — lossless and at 15 % loss with a bounded
/// (abandoning) policy.
#[test]
fn spans_account_every_tick_on_every_scheme() {
    let (ds, pool) = DatasetBuilder::new(60, 0x0B5E)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (air, policy) in [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ] {
        for sys in all_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 8 * sys.cycle_len());
            let plain = Engine::with_channel(sys.as_ref(), air, policy).run_batch(&requests);
            let mut engine = Engine::with_channel(sys.as_ref(), air, policy);
            engine.enable_metrics();
            let observed = engine.run_batch(&requests);
            let hub = engine.take_metrics().expect("metrics were enabled");
            assert_eq!(
                plain,
                observed,
                "{}: observation perturbed outcomes",
                sys.scheme_name()
            );

            let (access, tuning, retries) = plain.iter().fold((0u64, 0u64, 0u64), |acc, r| {
                (
                    acc.0 + r.outcome.access,
                    acc.1 + r.outcome.tuning,
                    acc.2 + u64::from(r.outcome.retries),
                )
            });
            assert_eq!(hub.completed, requests.len() as u64);
            // Exactness: the telescoping sums leave no tick unattributed.
            assert_eq!(
                hub.spans.total_access(),
                access,
                "{}: access ticks leaked from the spans",
                sys.scheme_name()
            );
            assert_eq!(
                hub.spans.total_tuning(),
                tuning,
                "{}: tuning ticks leaked from the spans",
                sys.scheme_name()
            );
            // Counter tie-out: every corrupt read is exactly one Retry span,
            // dozing costs access time but never tuning time, and a frozen
            // channel never enters stale recovery.
            assert_eq!(
                hub.spans.get(Phase::Retry).count,
                retries,
                "{}: Retry spans ≠ corrupt reads",
                sys.scheme_name()
            );
            assert_eq!(hub.spans.get(Phase::Doze).tuning, 0, "dozing is free air");
            assert_eq!(hub.spans.get(Phase::StaleRecovery).count, 0);
            // The walker reads exactly one bucket per tune-in — unless that
            // very first read was corrupted, which takes Retry precedence.
            let initial = hub.spans.get(Phase::InitialProbe).count;
            if air.worst_loss() == 0.0 {
                assert_eq!(
                    initial,
                    requests.len() as u64,
                    "{}: one initial probe per request",
                    sys.scheme_name()
                );
            } else {
                assert!(initial <= requests.len() as u64);
                assert!(initial > 0, "{}: no tune-in survived", sys.scheme_name());
            }
        }
    }
}

/// Same properties under 20 % churn on a [`VersionedServer`]: version
/// skews surface as `StaleRecovery` spans and the accounting stays exact
/// across program switches and respawns.
#[test]
fn dynamic_spans_attribute_version_skew_to_stale_recovery() {
    let (ds, pool) = DatasetBuilder::new(60, 0x5EED)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    struct Check<'a> {
        ds: &'a Dataset,
        pool: &'a [Key],
        p: &'a Params,
        spec: UpdateSpec,
    }
    impl SchemeVisitor for Check<'_> {
        type Output = ();
        fn visit<Sch: Scheme>(self, scheme: Sch)
        where
            <Sch::System as bda_core::System>::Machine: 'static,
        {
            let Check { ds, pool, p, spec } = self;
            let server = VersionedServer::build(&scheme, ds, p, spec).unwrap();
            let span = server.timeline().epochs().last().map_or(0, |e| e.start)
                + 4 * DynSystem::cycle_len(&server);
            let requests = request_mix(ds, pool, 80, span);
            for air in [ChannelModel::NONE, ErrorModel::new(0.10, 0x717).into()] {
                let policy = RetryPolicy::UNBOUNDED;
                let plain = Engine::with_channel(&server, air, policy).run_batch(&requests);
                let mut engine = Engine::with_channel(&server, air, policy);
                engine.enable_metrics();
                let observed = engine.run_batch(&requests);
                let hub = engine.take_metrics().expect("metrics were enabled");
                let name = DynSystem::scheme_name(&server);
                assert_eq!(plain, observed, "{name}: observation perturbed outcomes");
                let (access, tuning, skews) = plain.iter().fold((0u64, 0u64, 0u64), |acc, r| {
                    (
                        acc.0 + r.outcome.access,
                        acc.1 + r.outcome.tuning,
                        acc.2 + u64::from(r.outcome.version_skews),
                    )
                });
                assert_eq!(hub.spans.total_access(), access, "{name}: access leaked");
                assert_eq!(hub.spans.total_tuning(), tuning, "{name}: tuning leaked");
                assert_eq!(
                    hub.spans.get(Phase::StaleRecovery).count,
                    skews,
                    "{name}: StaleRecovery spans ≠ version skews"
                );
                assert!(
                    skews > 0,
                    "{name}: 20% churn must produce version skews to attribute"
                );
            }
        }
    }
    for kind in SchemeKind::ALL {
        kind.visit(
            None,
            Check {
                ds: &ds,
                pool: &pool,
                p: &params,
                spec,
            },
        );
    }
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

/// Analytical fast-forward is invisible to the observability layer: on
/// every scheme — lossless and 15 % loss with an abandoning policy — and
/// on the scan schemes at 20 % churn on a versioned server, the
/// fast-forwarded engine, the bucket-by-bucket engine and the plain
/// (unobserved) engine agree on every outcome, and the per-phase span sums
/// (including `Doze` tick totals for the skipped buckets) are
/// bit-identical.
#[test]
fn fast_forwarded_spans_match_bucket_by_bucket_on_every_scheme() {
    use bda_sim::Engine;
    let (ds, pool) = DatasetBuilder::new(60, 0x0FF0)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();

    fn observed_with_ff(
        sys: &dyn DynSystem,
        requests: &[(Ticks, Key)],
        air: ChannelModel,
        policy: RetryPolicy,
        ff: bool,
    ) -> (
        Vec<bda_sim::CompletedRequest>,
        bda_obs::MetricsHub,
        bda_sim::EngineStats,
    ) {
        let mut engine = Engine::with_channel(sys, air, policy);
        engine.set_fast_forward(ff);
        engine.enable_metrics();
        let done = engine.run_batch(requests);
        let hub = engine.take_metrics().expect("metrics were enabled");
        (done, hub, engine.stats())
    }

    /// Returns the fast and slow engines' event counts.
    fn check(
        sys: &dyn DynSystem,
        requests: &[(Ticks, Key)],
        air: ChannelModel,
        what: &str,
    ) -> (u64, u64) {
        let policy = RetryPolicy::bounded(2);
        let plain = Engine::with_channel(sys, air, policy).run_batch(requests);
        let (fast, fast_hub, fast_stats) = observed_with_ff(sys, requests, air, policy, true);
        let (slow, slow_hub, slow_stats) = observed_with_ff(sys, requests, air, policy, false);
        let name = sys.scheme_name();
        assert_eq!(
            plain, fast,
            "{name} [{what}]: fast-forward changed outcomes"
        );
        assert_eq!(fast, slow, "{name} [{what}]: ff-on ≠ ff-off");
        assert_eq!(
            fast_hub.spans, slow_hub.spans,
            "{name} [{what}]: span sums diverged"
        );
        assert_eq!(
            fast_hub.spans.get(Phase::Doze),
            slow_hub.spans.get(Phase::Doze),
            "{name} [{what}]: Doze tick totals must attribute skipped buckets"
        );
        assert_eq!(fast_hub.completed, slow_hub.completed);
        assert!(
            fast_stats.events <= slow_stats.events,
            "{name} [{what}]: fast-forward must never add events"
        );
        (fast_stats.events, slow_stats.events)
    }

    for sys in all_systems(&ds, &params) {
        let requests = request_mix(&ds, &pool, 80, 8 * sys.cycle_len());
        check(sys.as_ref(), &requests, ChannelModel::NONE, "lossless");
        check(
            sys.as_ref(),
            &requests,
            ErrorModel::new(0.15, 0xFA57).into(),
            "15% loss",
        );
    }

    // 20 % churn: versioned walks fast-forward through each epoch, up to
    // its end, and rebuild their machine against the live program at the
    // boundary — spans stay exact, and the scan schemes shed events.
    struct Churning<'a>(&'a Dataset);
    impl SchemeVisitor for Churning<'_> {
        type Output = (Box<dyn DynSystem>, Ticks);
        fn visit<Sch: Scheme>(self, scheme: Sch) -> Self::Output
        where
            Sch::System: 'static,
            <Sch::System as bda_core::System>::Machine: 'static,
        {
            let spec = UpdateSpec {
                rate: 0.20,
                seed: 0xABC7,
                horizon_cycles: 16,
            };
            let server = VersionedServer::build(&scheme, self.0, &Params::paper(), spec).unwrap();
            let span = server.timeline().epochs().last().map_or(0, |e| e.start)
                + 4 * DynSystem::cycle_len(&server);
            (Box::new(server), span)
        }
    }
    let scans = [
        SchemeKind::Flat,
        SchemeKind::Signature,
        SchemeKind::IntegratedSignature,
        SchemeKind::MultiLevelSignature,
    ];
    for (server, span) in scans.map(|k| k.visit(None, Churning(&ds)).unwrap()) {
        let requests = request_mix(&ds, &pool, 80, span);
        for (air, what) in [
            (ChannelModel::NONE, "20% churn"),
            (ErrorModel::new(0.10, 0x717).into(), "20% churn + loss"),
        ] {
            let (fast, slow) = check(server.as_ref(), &requests, air, what);
            assert!(
                fast < slow,
                "{} [{what}]: scans must fast-forward within an epoch",
                server.scheme_name()
            );
        }
    }
}

/// Windowed (time-resolved) observation is as invisible as aggregate
/// observation: on every scheme, the windowed engine's outcomes are
/// bit-identical to the plain engine's, and its aggregate hub is
/// bit-identical to the aggregate-only observed run's — the time axis is
/// a pure refinement, never a perturbation.
#[test]
fn timeline_observed_runs_are_bit_identical_to_plain_runs() {
    use bda_obs::WindowSpec;
    let (ds, pool) = DatasetBuilder::new(60, 0x0B5E)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (air, policy) in [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ] {
        for sys in all_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 8 * sys.cycle_len());
            let plain = Engine::with_channel(sys.as_ref(), air, policy).run_batch(&requests);
            let mut engine = Engine::with_channel(sys.as_ref(), air, policy);
            engine.enable_metrics();
            let aggregate_only = engine.run_batch(&requests);
            let agg_hub = engine.take_metrics().expect("metrics were enabled");
            let mut engine = Engine::with_channel(sys.as_ref(), air, policy);
            engine.enable_metrics_windowed(WindowSpec::new(sys.cycle_len()));
            let windowed = engine.run_batch(&requests);
            let win_hub = engine.take_metrics().expect("metrics were enabled");
            let name = sys.scheme_name();
            assert_eq!(plain, windowed, "{name}: windowing perturbed outcomes");
            assert_eq!(aggregate_only, windowed);
            // The windowed hub, with its time series stripped, is the
            // aggregate hub — windowing refines, it never re-counts.
            let mut stripped = win_hub.clone();
            stripped.windows = None;
            assert_eq!(stripped, agg_hub, "{name}: windowing changed aggregates");
            assert!(win_hub.windows.is_some());
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
