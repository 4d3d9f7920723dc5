//! Cross-driver equivalence on **broadcast-disk (stratified) programs**.
//!
//! The disk constructor changes the broadcast program's *shape* — hot
//! records repeat, index frames route to the next occurrence — but it must
//! not change the simulator contract: the slab engine, the naive reference
//! oracle, the sharded engine (every shard count), and the fast-forwarding
//! walker all agree bit-identically on every disk-capable scheme, across a
//! lossless channel, a 15 % error-prone channel with bounded retries, and
//! `churn-lossy`'s burst loss with outages under capped, jittered
//! back-off, on frozen and 20 %-churn dynamic programs alike.
//! Observability (span sums, histograms, percentiles) merges exactly too,
//! and under skewed demand every stratified program beats its flat cycle
//! on the engine.

use bda_core::{
    BurstModel, ChannelModel, Dataset, DiskConfig, DynSystem, ErrorModel, FlatDisksScheme, Key,
    OutageSchedule, Params, RetryPolicy, Scheme, Ticks,
};
use bda_datagen::{DatasetBuilder, Popularity, Prng, QueryWorkload};
use bda_sim::engine::reference::run_requests_reference_channel;
use bda_sim::{
    CompletedRequest, Engine, Layout, SchemeKind, SchemeVisitor, ShardedEngine, UpdateSpec,
    VersionedServer,
};

/// A check on one churned server: the server, the air span covering all
/// its epochs, and its `(version, dataset)` snapshots in air order.
type ServerCheck<'a> = dyn FnMut(&dyn DynSystem, Ticks, &[(u64, Dataset)]) + 'a;

/// 15 % loss — the suite's error-prone channel.
const LOSS: f64 = 0.15;
/// 20 % of records touched per cycle — the suite's churn rate.
const CHURN: f64 = 0.20;
/// The stratification depth under test. (D = 1 bit-identity is pinned by
/// the property suite in `bda-core` and per-scheme wrapper tests.)
const DISKS: usize = 3;

/// Frozen builds of every disk-capable scheme family at `D = 3`: the two
/// interleaved scan layouts plus the chunked-navigation wrapper around
/// hashing and distributed indexing.
fn disk_systems(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    let disks = Layout::Disks(DiskConfig::new(DISKS));
    SchemeKind::ALL
        .into_iter()
        .filter_map(|k| k.build_on(ds, p, &disks, None))
        .map(Result::unwrap)
        .collect()
}

/// Shard counts: 1, 2, 3, 7 and the host's core count, deduplicated.
fn shard_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut counts = vec![1, 2, 3, 7, cores];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Deterministic request mix spreading arrivals over `span` bytes of air
/// time, present and absent keys interleaved, unsorted.
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

/// `churn-lossy`'s air: a Gilbert–Elliott chain (4 % → bad, 20 % → good,
/// 90 % loss while bad) with a 300-tick outage every 3 000 ticks, under
/// a bounded, capped and jittered exponential back-off.
fn burst_air() -> (ChannelModel, RetryPolicy) {
    (
        ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
            .with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
        RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x117),
    )
}

/// Lossless with unbounded retries, 15 % loss with a bounded policy so
/// abandonment paths are exercised on stratified programs too, and burst
/// loss with outages ([`burst_air`]).
fn fault_modes() -> [(ChannelModel, RetryPolicy); 3] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(LOSS, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
        burst_air(),
    ]
}

/// Fail unless a lossy air corrupted some read of the batch.
fn assert_air_bites(air: ChannelModel, done: &[CompletedRequest], name: &str) {
    if !air.is_lossless() {
        assert!(
            done.iter().any(|r| r.outcome.retries > 0),
            "{name}: {air:?} corrupted no read"
        );
    }
}

/// Run a batch on a slab engine with fast-forward pinned on or off.
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

/// Slab engine ≡ reference oracle ≡ sharded engine (every shard count) on
/// all four disk-capable schemes, on every air — outcomes and the
/// shard-invariant stats projection both.
#[test]
fn disk_outcomes_agree_across_all_drivers_and_shard_counts() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15C)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy) in fault_modes() {
        for sys in disk_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 12 * sys.cycle_len());
            let mut single = Engine::with_channel(sys.as_ref(), channel, policy);
            let baseline = single.run_batch(&requests);
            let oracle = run_requests_reference_channel(sys.as_ref(), &requests, channel, policy);
            let name = sys.scheme_name();
            assert_air_bites(channel, &baseline, name);
            assert_eq!(
                baseline, oracle,
                "{name}: slab engine ≠ reference oracle on stratified program"
            );
            for shards in shard_counts() {
                let mut engine = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy);
                let merged = engine.run_batch(&requests);
                assert_eq!(
                    baseline, merged,
                    "{name} outcomes drifted at {shards} shards ({channel:?})"
                );
                assert_eq!(
                    single.stats().outcome_counters(),
                    engine.stats().outcome_counters(),
                    "{name} stats drifted at {shards} shards"
                );
            }
        }
    }
}

/// The fast-forwarding walker is exact on stratified programs: outcomes
/// match the bucket-by-bucket path bit for bit, and the jump never *adds*
/// scheduler events. Repetition must not break ff eligibility for the
/// scan layouts — the interleaved flat-disk program still collapses its
/// event count.
#[test]
fn fast_forward_is_exact_on_stratified_programs() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15D)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (channel, policy) in fault_modes() {
        for sys in disk_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 72, 8 * sys.cycle_len());
            let (fast, fast_events) = run_with_ff(sys.as_ref(), &requests, channel, policy, true);
            let (slow, slow_events) = run_with_ff(sys.as_ref(), &requests, channel, policy, false);
            let name = sys.scheme_name();
            assert_air_bites(channel, &slow, name);
            assert_eq!(fast, slow, "{name}: fast-forward changed a disk outcome");
            assert!(
                fast_events <= slow_events,
                "{name}: fast-forward added events ({fast_events} > {slow_events})"
            );
        }
    }
    // Eligibility, not just exactness: the flat scan layout must still
    // collapse wake-ups by an order of magnitude on a lossless channel.
    let sys = FlatDisksScheme::new(DiskConfig::new(DISKS))
        .build(&ds, &params)
        .unwrap();
    let requests = request_mix(&ds, &pool, 72, 8 * DynSystem::cycle_len(&sys));
    let (fast, fe) = run_with_ff(
        &sys,
        &requests,
        ChannelModel::NONE,
        RetryPolicy::UNBOUNDED,
        true,
    );
    let (slow, se) = run_with_ff(
        &sys,
        &requests,
        ChannelModel::NONE,
        RetryPolicy::UNBOUNDED,
        false,
    );
    assert_eq!(fast, slow);
    assert!(
        fe * 10 <= se,
        "flat-disks lost fast-forward eligibility: {se} → {fe} events"
    );
}

/// Merged observability is exact on stratified programs: span sums,
/// access/tuning/retry histograms and every percentile agree between the
/// single engine and each sharded merge, at 15 % loss and on burst loss
/// with outages.
#[test]
fn observed_metrics_merge_exactly_on_stratified_programs() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15E)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let iid = (ErrorModel::new(LOSS, 0x717).into(), RetryPolicy::bounded(3));
    for (channel, policy) in [iid, burst_air()] {
        for sys in disk_systems(&ds, &params) {
            let requests = request_mix(&ds, &pool, 90, 12 * sys.cycle_len());
            let mut engine = Engine::with_channel(sys.as_ref(), channel, policy);
            engine.enable_metrics();
            let baseline = engine.run_batch(&requests);
            let hub = engine.take_metrics().expect("metrics were enabled");
            // Span sums must tie out against the outcomes they measure.
            let access_sum: u128 = baseline.iter().map(|r| u128::from(r.outcome.access)).sum();
            let name = sys.scheme_name();
            assert_air_bites(channel, &baseline, name);
            assert_eq!(
                access_sum,
                hub.access.sum(),
                "{name}: access histogram sum ≠ outcome access sum"
            );
            for shards in shard_counts() {
                let mut engine = ShardedEngine::with_channel(sys.as_ref(), shards, channel, policy);
                engine.enable_metrics();
                let merged = engine.run_batch(&requests);
                let sharded_hub = engine.take_metrics().expect("metrics were enabled");
                assert_eq!(baseline, merged, "{name}, {shards} shards");
                assert_eq!(
                    hub.spans, sharded_hub.spans,
                    "{name} spans, {shards} shards"
                );
                assert_eq!(
                    hub.access, sharded_hub.access,
                    "{name} access histogram, {shards} shards"
                );
                assert_eq!(
                    hub.tuning, sharded_hub.tuning,
                    "{name} tuning histogram, {shards} shards"
                );
                assert_eq!(
                    hub.retry_depth, sharded_hub.retry_depth,
                    "{name} retry-depth histogram, {shards} shards"
                );
                assert_eq!(hub.completed, sharded_hub.completed);
                assert_eq!(hub.found, sharded_hub.found);
                assert_eq!(hub.abandoned, sharded_hub.abandoned);
                for q in [0.5, 0.9, 0.99, 1.0] {
                    assert_eq!(
                        hub.access.quantile(q),
                        sharded_hub.access.quantile(q),
                        "{name} access p{q}, {shards} shards"
                    );
                    assert_eq!(
                        hub.tuning.quantile(q),
                        sharded_hub.tuning.quantile(q),
                        "{name} tuning p{q}, {shards} shards"
                    );
                }
            }
        }
    }
}

/// Build a churned [`VersionedServer`] for every disk-capable scheme and
/// hand each one (type-erased, span covering all epochs, with its
/// `(version, dataset)` snapshots) to `f` — the stratified constructor
/// piggybacks on the versioned-cycle machinery without any
/// scheme-specific glue.
fn with_all_disk_versioned(ds: &Dataset, p: &Params, spec: UpdateSpec, f: &mut ServerCheck<'_>) {
    struct One<'a, 'f> {
        ds: &'a Dataset,
        p: &'a Params,
        spec: UpdateSpec,
        f: &'a mut ServerCheck<'f>,
    }
    impl SchemeVisitor for One<'_, '_> {
        type Output = ();
        fn visit<Sch: Scheme>(self, scheme: Sch)
        where
            <Sch::System as bda_core::System>::Machine: 'static,
        {
            let server = VersionedServer::build(&scheme, self.ds, self.p, self.spec).unwrap();
            let span =
                server.timeline().epochs().last().map_or(0, |e| e.start) + 4 * server.cycle_len();
            (self.f)(&server, span, server.datasets());
        }
    }
    for kind in SchemeKind::ALL {
        kind.visit(Some(DiskConfig::new(DISKS)), One { ds, p, spec, f });
    }
}

/// A 20 %-churn dynamic stratified program: the stale machinery engages
/// (re-ranking piggybacks on versioned cycles), and the reference oracle,
/// the bucket-by-bucket engine and every shard count reproduce the
/// fast-forwarding slab engine's outcomes exactly, on every air. Each
/// epoch's routing reads the disk schedule from the epoch's start, so a
/// key on the air throughout is found unless the retry policy gave up,
/// and no walk aborts.
#[test]
fn churned_stratified_programs_are_shard_invariant() {
    let (ds, pool) = DatasetBuilder::new(60, 0xD15F)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: CHURN,
        seed: 0xBEEF,
        horizon_cycles: 16,
    };
    for (channel, policy) in fault_modes() {
        with_all_disk_versioned(&ds, &params, spec, &mut |server, span, snapshots| {
            let requests = request_mix(&ds, &pool, 70, span);
            let baseline = Engine::with_channel(server, channel, policy).run_batch(&requests);
            let name = server.scheme_name();
            for (i, r) in baseline.iter().enumerate() {
                let o = &r.outcome;
                assert!(!o.aborted, "{name}: aborted at req {i} ({channel:?})");
                let kept = snapshots.iter().all(|(_, d)| d.contains(r.key));
                assert!(
                    o.found || o.abandoned || !kept,
                    "{name}: key {} on the air throughout missed at req {i} ({channel:?})",
                    r.key
                );
            }
            let churn_engaged = baseline.iter().any(|r| r.outcome.version_skews > 0);
            assert!(
                churn_engaged,
                "{name}: 20% churn must exercise the stale machinery on disks"
            );
            assert_air_bites(channel, &baseline, name);
            let oracle = run_requests_reference_channel(server, &requests, channel, policy);
            assert_eq!(
                baseline, oracle,
                "{name}: churn outcomes ≠ reference oracle"
            );
            let (slow, _) = run_with_ff(server, &requests, channel, policy, false);
            assert_eq!(
                baseline, slow,
                "{name}: fast-forward changed a churn outcome"
            );
            for shards in shard_counts() {
                let merged = ShardedEngine::with_channel(server, shards, channel, policy)
                    .run_batch(&requests);
                assert_eq!(
                    baseline, merged,
                    "{name} churn outcomes drifted at {shards} shards ({channel:?})"
                );
            }
        });
    }
}
