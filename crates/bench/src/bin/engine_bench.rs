//! Machine-readable engine throughput harness.
//!
//! Drives a burst of concurrent clients (default 100 000, all tuned in
//! within one bucket, so the whole population is simultaneously in
//! flight) through the slab engine for every scheme, and writes
//! `BENCH_engine.json` with requests/sec, peak in-flight clients and
//! events processed — the numbers the perf trajectory is tracked by.
//!
//! With `--metrics-out DIR` every scheme is additionally re-run with the
//! observability layer on; the run's metrics land in `DIR/<scheme>.json`
//! (the `bda-obs/v1` document) plus a combined `DIR/metrics.prom`
//! Prometheus rendering, and the main JSON gains the observed throughput
//! next to the default (no-op recorder) one — the measured cost of
//! turning observation on.
//!
//! With `--shards N` every scheme is additionally run through the
//! sharded engine (`N` per-core slab engines over the shared program,
//! deterministic merge); the harness asserts the merged outcomes are
//! bit-identical to the single-engine batch, and the JSON gains the
//! aggregate sharded throughput, the speedup over one shard, the scaling
//! efficiency (speedup / shards) and a per-shard breakdown.
//!
//! Every run also measures a bursty-channel leg — each scheme's churning
//! program under a Gilbert–Elliott chain with outage windows — and
//! exports it as the JSON's `"burst"` block (req/s plus the corrupt /
//! abandoned / stale-restart counters).
//!
//! With `--shards N` the sharded leg additionally attributes load per
//! shard: a windowed re-run (one window per broadcast cycle) yields each
//! shard's busy/idle ticks, and the JSON gains `busy_ticks`/`idle_ticks`
//! per shard plus scheme-level imbalance figures (`shard_load_ratio` =
//! max/mean busy ticks, `shard_busy_variance`) and the measured
//! scatter-merge wall-clock cost (`scatter_merge_sec`).
//!
//! With `--timeline-out DIR` every scheme is re-run with windowed
//! (time-resolved) metrics, the window sums are asserted equal to the
//! end-of-run aggregates, and a `bda-obs/trace/v1` Perfetto/Chrome trace
//! (per-shard counter lanes + seed-sampled per-request span timelines)
//! lands in `DIR/<scheme>.trace.json`.
//!
//! ```text
//! engine_bench [--clients N] [--records N] [--shards N] [--out PATH]
//!              [--no-reference] [--metrics-out DIR] [--timeline-out DIR]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use bda_bench::SchemeKind;
use bda_core::{
    BurstModel, ChannelModel, DiskConfig, Key, OutageSchedule, Params, RetryPolicy, Ticks,
};
use bda_datagen::{DatasetBuilder, Prng};
use bda_obs::{export, validate_trace, MetricsHub, TimeSeries, WindowSpec};
use bda_sim::{
    engine::reference::run_requests_reference_channel, perfetto_trace, Engine, EngineStats, Layout,
    ShardRun, ShardedEngine, UpdateSpec,
};

struct Cli {
    clients: usize,
    records: usize,
    /// `None`: single-engine benchmark only. `Some(n)`: additionally
    /// measure the sharded engine at `n` worker shards.
    shards: Option<usize>,
    out: String,
    reference: bool,
    metrics_out: Option<String>,
    timeline_out: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        clients: 100_000,
        records: 1_000,
        shards: None,
        out: "BENCH_engine.json".into(),
        reference: true,
        metrics_out: None,
        timeline_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut num = |name: &str| -> usize {
            args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} requires an integer");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--clients" => cli.clients = num("--clients"),
            "--records" => cli.records = num("--records"),
            "--shards" => {
                let n = num("--shards");
                if n == 0 {
                    eprintln!("--shards requires at least 1");
                    std::process::exit(2);
                }
                cli.shards = Some(n);
            }
            "--out" => {
                cli.out = args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                })
            }
            "--metrics-out" => {
                cli.metrics_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--metrics-out requires a directory");
                    std::process::exit(2);
                }))
            }
            "--timeline-out" => {
                cli.timeline_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--timeline-out requires a directory");
                    std::process::exit(2);
                }))
            }
            "--no-reference" => cli.reference = false,
            "--help" | "-h" => {
                eprintln!(
                    "engine_bench [--clients N] [--records N] [--shards N] [--out PATH] [--no-reference] [--metrics-out DIR] [--timeline-out DIR]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    cli
}

/// Scheme name → filesystem-safe stem (`(1,m)` → `_1_m_`).
fn file_stem(scheme: &str) -> String {
    scheme
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// `n` requests for present keys, all arriving within a 16-tick window —
/// narrower than any bucket, so every client is concurrently in flight.
fn burst(ds: &bda_core::Dataset, n: usize, seed: u64) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    let mut rng = Prng::new(seed);
    (0..n)
        .map(|i| {
            let key = keys[rng.below(keys.len() as u64) as usize];
            ((i % 16) as Ticks, key)
        })
        .collect()
}

/// Skew of the broadcast-disk leg's workload.
const SKEW_THETA: f64 = 1.2;
/// Stratification depth of the broadcast-disk leg.
const SKEW_DISKS: usize = 3;

/// Per-cycle churn rate of the bursty-channel leg's programs — enough
/// version drift that stale restarts actually register.
const BURST_CHURN: f64 = 0.10;

/// Seed of the deterministic request-timeline sample under
/// `--timeline-out` — sampling is a pure function of (seed, index).
const TRACE_SAMPLE_SEED: u64 = 0x7ACE;
/// How many requests' span timelines each trace carries.
const TRACE_SAMPLE_K: usize = 8;

/// The bursty-channel leg's fault model: the same Gilbert–Elliott chain
/// (~17 % stationary loss) plus 10 % outage windows the golden corpus
/// pins, driven by the exponential-back-off resynchronization policy.
fn burst_channel() -> (ChannelModel, RetryPolicy) {
    let chain = BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57);
    (
        ChannelModel::burst(chain).with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
        RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x117),
    )
}

/// One bursty-channel row: a churning program under burst loss + outages.
struct BurstRow {
    scheme: &'static str,
    requests_per_sec: f64,
    corrupt_reads: u64,
    abandoned: u64,
    stale_restarts: u64,
}

/// Keys drawn Zipf(θ) — the workload broadcast disks are built for —
/// with tune-ins uniform over `span`, so the mean access time samples
/// every cycle phase instead of the hot head of the identity-ranked
/// cycle. (A 16-tick burst at t = 0 would flatter the flat program: rank
/// 0 airs first.)
fn zipf_burst(ds: &bda_core::Dataset, n: usize, seed: u64, span: Ticks) -> Vec<(Ticks, Key)> {
    let mut w = bda_datagen::QueryWorkload::new(
        ds,
        Vec::new(),
        1.0,
        bda_datagen::Popularity::Zipf(SKEW_THETA),
        seed,
    );
    let mut rng = Prng::new(seed ^ 0x5EED);
    (0..n)
        .map(|_| (rng.below(span.max(1)), w.next_key()))
        .collect()
}

/// One skewed-workload row: the flat (D = 1) program vs the stratified
/// (D = 3) program of the same scheme under a Zipf(1.2) burst.
struct SkewRow {
    scheme: &'static str,
    requests_per_sec: f64,
    mean_access: f64,
    disks_requests_per_sec: f64,
    disks_mean_access: f64,
}

/// Throughput and mean access time of one system under the skewed burst.
fn run_skew_leg(sys: &dyn bda_core::DynSystem, requests: &[(Ticks, Key)]) -> (f64, f64) {
    let mut engine = Engine::new(sys);
    engine.run_batch(requests);
    let start = Instant::now();
    let done = engine.run_batch(requests);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(done.len(), requests.len());
    let at: u128 = done.iter().map(|r| u128::from(r.outcome.access)).sum();
    (
        requests.len() as f64 / elapsed.max(1e-12),
        at as f64 / requests.len() as f64,
    )
}

/// Sharded-engine figures for one scheme (only measured under `--shards`).
struct ShardedFigures {
    requests_per_sec: f64,
    /// Aggregate sharded throughput over the single-engine throughput.
    speedup: f64,
    /// `speedup / shards` — 1.0 is perfect linear scaling.
    efficiency: f64,
    per_shard: Vec<ShardRun>,
    /// Per-shard busy ticks (≥ 1 client in flight) from the windowed
    /// attribution re-run, in shard order.
    busy_ticks: Vec<u64>,
    /// Per-shard idle ticks: the batch horizon minus busy ticks.
    idle_ticks: Vec<u64>,
    /// Max over mean of per-shard busy ticks — 1.0 is a perfectly even
    /// split of simulated work.
    load_ratio: f64,
    /// Population variance of per-shard busy ticks.
    busy_variance: f64,
    /// Wall-clock spent scatter-merging completions back into arrival
    /// order (the sequential tail of the sharded run).
    merge_sec: f64,
    /// Per-shard windowed time series, kept for `--timeline-out` lanes.
    series: Vec<TimeSeries>,
}

/// Windowed attribution re-run: per-shard busy/idle ticks and imbalance
/// over the same batch. The tick domain is deterministic, so this re-run
/// sees exactly the load the timed run did.
fn attribute_shards(
    system: &dyn bda_core::DynSystem,
    shards: usize,
    requests: &[(Ticks, Key)],
) -> (Vec<TimeSeries>, Vec<u64>, Vec<u64>, f64, f64, f64) {
    let mut engine = ShardedEngine::new(system, shards);
    engine.enable_metrics_windowed(WindowSpec::new(system.cycle_len()));
    let done = engine.run_batch(requests);
    let merge_sec = engine.last_merge_sec();
    let horizon = done
        .iter()
        .map(|r| r.arrival + r.outcome.access)
        .max()
        .unwrap_or(0);
    let series: Vec<TimeSeries> = engine
        .take_shard_metrics()
        .into_iter()
        .map(|h| h.windows.expect("windowed metrics were enabled"))
        .collect();
    assert_eq!(series.len(), shards, "every shard must report a series");
    let busy: Vec<u64> = series.iter().map(|s| s.totals().busy_ticks).collect();
    let idle: Vec<u64> = busy.iter().map(|&b| horizon.saturating_sub(b)).collect();
    let mean = busy.iter().sum::<u64>() as f64 / shards.max(1) as f64;
    let load_ratio = if mean > 0.0 {
        busy.iter().copied().max().unwrap_or(0) as f64 / mean
    } else {
        1.0
    };
    let variance =
        busy.iter().map(|&b| (b as f64 - mean).powi(2)).sum::<f64>() / shards.max(1) as f64;
    (series, busy, idle, load_ratio, variance, merge_sec)
}

struct Row {
    scheme: &'static str,
    elapsed_sec: f64,
    requests_per_sec: f64,
    stats: EngineStats,
    reference_speedup: Option<f64>,
    /// Fast-forward before/after on the reduced batch: throughput of the
    /// bucket-by-bucket engine, and the fast engine's speedup over it
    /// (only measured with the reference comparison enabled).
    slow_path_requests_per_sec: Option<f64>,
    fast_forward_speedup: Option<f64>,
    /// Throughput of the same batch with the observability layer on
    /// (only measured under `--metrics-out`).
    observed_requests_per_sec: Option<f64>,
    sharded: Option<ShardedFigures>,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let cli = parse_cli();
    let params = Params::paper();
    let dataset = DatasetBuilder::new(cli.records, 11).build().unwrap();
    let requests = burst(&dataset, cli.clients, 5);
    // Reference comparison at a size the naive engine handles quickly.
    let ref_requests = burst(&dataset, (cli.clients / 5).max(1), 9);

    println!(
        "{:<22} {:>12} {:>14} {:>14} {:>12} {:>10} {:>10} {:>12}",
        "scheme",
        "req/s",
        "peak in-flight",
        "events",
        "batches",
        "vs naive",
        "vs slow",
        "observed r/s"
    );
    let mut rows = Vec::new();
    let mut hubs: Vec<(&'static str, MetricsHub)> = Vec::new();
    for kind in SchemeKind::ALL {
        let system = kind.build(&dataset, &params).unwrap();
        let mut engine = Engine::new(system.as_ref());
        // Warm the arena so steady-state (allocation-free) throughput is
        // what gets measured.
        engine.run_batch(&requests);
        let before = engine.stats();
        let start = Instant::now();
        let completed = engine.run_batch(&requests);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(completed.len(), requests.len());
        assert!(
            completed.iter().all(|r| !r.outcome.aborted),
            "protocol bug in {}",
            kind.name()
        );
        let after = engine.stats();
        let stats = EngineStats {
            events: after.events - before.events,
            wake_batches: after.wake_batches - before.wake_batches,
            peak_in_flight: after.peak_in_flight,
            completed: after.completed - before.completed,
            corrupt_reads: after.corrupt_reads - before.corrupt_reads,
            abandoned: after.abandoned - before.abandoned,
            stale_restarts: after.stale_restarts - before.stale_restarts,
            version_skews: after.version_skews - before.version_skews,
        };

        // Reduced-batch comparisons: the naive reference oracle and the
        // bucket-by-bucket (fast-forward off) slab engine, both against
        // the fast slab engine on the same batch. The slow runs are the
        // "before" column of the fast-forward repair; outcomes must stay
        // bit-identical across all three.
        let mut reference_speedup = None;
        let mut slow_path_requests_per_sec = None;
        let mut fast_forward_speedup = None;
        if cli.reference {
            let mut slab = Engine::new(system.as_ref());
            slab.run_batch(&ref_requests);
            let start = Instant::now();
            let fast_done = slab.run_batch(&ref_requests);
            let slab_t = start.elapsed().as_secs_f64();

            let mut slow = Engine::new(system.as_ref());
            slow.set_fast_forward(false);
            slow.run_batch(&ref_requests);
            let start = Instant::now();
            let slow_done = slow.run_batch(&ref_requests);
            let slow_t = start.elapsed().as_secs_f64();
            assert_eq!(
                fast_done,
                slow_done,
                "fast-forward must be outcome-invisible ({})",
                kind.name()
            );

            let start = Instant::now();
            run_requests_reference_channel(
                system.as_ref(),
                &ref_requests,
                ChannelModel::NONE,
                RetryPolicy::UNBOUNDED,
            );
            let ref_t = start.elapsed().as_secs_f64();

            reference_speedup = Some(ref_t / slab_t.max(1e-12));
            slow_path_requests_per_sec = Some(ref_requests.len() as f64 / slow_t.max(1e-12));
            fast_forward_speedup = Some(slow_t / slab_t.max(1e-12));
        }

        let observed_requests_per_sec = cli.metrics_out.is_some().then(|| {
            let mut observed = Engine::new(system.as_ref());
            observed.enable_metrics();
            // Same warm-up discipline as the no-op run.
            observed.run_batch(&requests);
            let _ = observed.take_metrics();
            observed.enable_metrics();
            let start = Instant::now();
            let done = observed.run_batch(&requests);
            let obs_elapsed = start.elapsed().as_secs_f64();
            assert_eq!(done.len(), requests.len());
            let hub = observed.take_metrics().expect("metrics were enabled");
            assert_eq!(hub.completed, requests.len() as u64);
            hubs.push((kind.name(), hub));
            requests.len() as f64 / obs_elapsed.max(1e-12)
        });

        let single_rps = requests.len() as f64 / elapsed.max(1e-12);
        let sharded = cli.shards.map(|n| {
            let mut engine = ShardedEngine::new(system.as_ref(), n);
            // Same warm-up discipline as the single-engine run.
            engine.run_batch(&requests);
            let start = Instant::now();
            let done = engine.run_batch(&requests);
            let sharded_elapsed = start.elapsed().as_secs_f64();
            assert_eq!(
                done,
                completed,
                "sharded merge must be bit-identical to the single engine ({})",
                kind.name()
            );
            let rps = requests.len() as f64 / sharded_elapsed.max(1e-12);
            // At one shard there is no split to measure: the sharded
            // engine *is* the single engine plus a trivial merge, so the
            // speedup is 1.0 by construction — reporting the timing ratio
            // would let run-to-run noise masquerade as a regression.
            let speedup = if n == 1 {
                1.0
            } else {
                rps / single_rps.max(1e-12)
            };
            // Regression gate: sharding a scheme must never cost
            // throughput. This is the guard that catches the multilevel
            // 0.965x class of regression — fail the whole bench run.
            if speedup < 1.0 {
                eprintln!(
                    "FAIL: {} shard_speedup {speedup:.3} < 1.0 at {n} shards \
                     ({rps:.0} req/s sharded vs {single_rps:.0} single)",
                    kind.name()
                );
                std::process::exit(1);
            }
            let per_shard = engine.last_runs().to_vec();
            let (series, busy_ticks, idle_ticks, load_ratio, busy_variance, merge_sec) =
                attribute_shards(system.as_ref(), n, &requests);
            ShardedFigures {
                requests_per_sec: rps,
                speedup,
                efficiency: speedup / n as f64,
                per_shard,
                busy_ticks,
                idle_ticks,
                load_ratio,
                busy_variance,
                merge_sec,
                series,
            }
        });

        if let Some(dir) = &cli.timeline_out {
            // Windowed (time-resolved) re-run: outcomes must stay
            // bit-identical and the window sums must equal the aggregate
            // hub exactly — the tentpole invariant of the timeline layer.
            let mut windowed = Engine::new(system.as_ref());
            windowed.enable_metrics_windowed(WindowSpec::new(system.cycle_len()));
            let done = windowed.run_batch(&requests);
            assert_eq!(
                done,
                completed,
                "windowed observation must not perturb outcomes ({})",
                kind.name()
            );
            let hub = windowed.take_metrics().expect("metrics were enabled");
            let series = hub.windows.as_ref().expect("windowed run carries a series");
            let totals = series.totals();
            assert_eq!(totals.completions, hub.completed, "{}", kind.name());
            assert_eq!(totals.found, hub.found, "{}", kind.name());
            assert_eq!(
                u128::from(totals.access_ticks),
                hub.access.sum(),
                "{}: window access sums must be exact",
                kind.name()
            );
            assert_eq!(
                u128::from(totals.tuning_ticks),
                hub.tuning.sum(),
                "{}: window tuning sums must be exact",
                kind.name()
            );
            // One counter lane per shard when the sharded leg ran, else
            // the single engine's lane; plus sampled request timelines.
            let lanes: Vec<&TimeSeries> = match &sharded {
                Some(f) => f.series.iter().collect(),
                None => vec![series],
            };
            let trace = perfetto_trace(
                kind.name(),
                system.as_ref(),
                &requests,
                ChannelModel::NONE,
                RetryPolicy::UNBOUNDED,
                &lanes,
                TRACE_SAMPLE_SEED,
                TRACE_SAMPLE_K,
            );
            let events = validate_trace(&trace)
                .unwrap_or_else(|e| panic!("{}: invalid trace document: {e}", kind.name()));
            assert!(events > 0, "{}: empty trace", kind.name());
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir}: {e}");
                std::process::exit(1);
            }
            let path = format!("{dir}/{}.trace.json", file_stem(kind.name()));
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }

        let row = Row {
            scheme: kind.name(),
            elapsed_sec: elapsed,
            requests_per_sec: single_rps,
            stats,
            reference_speedup,
            slow_path_requests_per_sec,
            fast_forward_speedup,
            observed_requests_per_sec,
            sharded,
        };
        println!(
            "{:<22} {:>12.0} {:>14} {:>14} {:>12} {:>10} {:>10} {:>12}",
            row.scheme,
            row.requests_per_sec,
            row.stats.peak_in_flight,
            row.stats.events,
            row.stats.wake_batches,
            row.reference_speedup
                .map_or("-".into(), |s| format!("{s:.1}x")),
            row.fast_forward_speedup
                .map_or("-".into(), |s| format!("{s:.1}x")),
            row.observed_requests_per_sec
                .map_or("-".into(), |s| format!("{s:.0}")),
        );
        if let (Some(f), Some(n)) = (&row.sharded, cli.shards) {
            println!(
                "  └ {n} shards: {:>12.0} req/s  ({:.2}x over 1 engine, {:.0}% efficiency, \
                 load ratio {:.2}, merge {:.2}ms)",
                f.requests_per_sec,
                f.speedup,
                f.efficiency * 100.0,
                f.load_ratio,
                f.merge_sec * 1e3,
            );
        }
        rows.push(row);
    }

    // Skewed-workload leg: a Zipf(1.2) burst over each disk-capable
    // scheme's flat (D=1) and stratified (D=3) programs. The stratified
    // program trades a longer cycle for hot-record repetition, so its mean
    // access time under skew must come out ahead — asserted, not just
    // exported.
    let skew_clients = (cli.clients / 10).max(1);
    let mut skew_rows: Vec<SkewRow> = Vec::new();
    println!(
        "\n{:<22} {:>12} {:>14} {:>14} {:>14} {:>10}",
        "skewed θ=1.2", "req/s", "mean At", "D3 req/s", "D3 mean At", "At gain"
    );
    let stratified = Layout::Disks(DiskConfig::new(SKEW_DISKS));
    for kind in SchemeKind::ALL.into_iter().filter(|k| k.has_disks()) {
        let flat_sys = kind.build(&dataset, &params).unwrap();
        let disk_sys = kind
            .build_on(&dataset, &params, &stratified, None)
            .expect("disk-capable")
            .unwrap();
        // Uniform tune-in phase over eight major cycles of the stratified
        // program (≈ uniform over the flat cycle too).
        let skew_requests = zipf_burst(&dataset, skew_clients, 13, 8 * disk_sys.cycle_len());
        let (rps, at) = run_skew_leg(flat_sys.as_ref(), &skew_requests);
        let (d_rps, d_at) = run_skew_leg(disk_sys.as_ref(), &skew_requests);
        assert!(
            d_at < at,
            "{}: stratified mean access {d_at:.0} must beat flat {at:.0} under Zipf(1.2)",
            kind.name()
        );
        println!(
            "{:<22} {:>12.0} {:>14.0} {:>14.0} {:>14.0} {:>9.2}x",
            kind.name(),
            rps,
            at,
            d_rps,
            d_at,
            at / d_at
        );
        skew_rows.push(SkewRow {
            scheme: kind.name(),
            requests_per_sec: rps,
            mean_access: at,
            disks_requests_per_sec: d_rps,
            disks_mean_access: d_at,
        });
    }

    // Bursty-channel leg: every scheme's churning program under the
    // Gilbert–Elliott chain with outage windows, recovered by the
    // resynchronization policy. Throughput here prices the whole fault
    // path — skip-ahead state resolution, outage back-off, version-skew
    // restarts — and the fault counters prove the leg isn't degenerate.
    let (channel, policy) = burst_channel();
    let burst_clients = (cli.clients / 10).max(1);
    let burst_requests = burst(&dataset, burst_clients, 21);
    let mut burst_rows: Vec<BurstRow> = Vec::new();
    println!(
        "\n{:<22} {:>12} {:>12} {:>12} {:>14}",
        "burst+outage", "req/s", "corrupt", "abandoned", "stale restarts"
    );
    for kind in SchemeKind::ALL {
        let spec = UpdateSpec {
            rate: BURST_CHURN,
            seed: 0x0DD,
            horizon_cycles: 16,
        };
        let system = kind.build_versioned(&dataset, &params, spec).unwrap();
        let mut engine = Engine::with_channel(system.as_ref(), channel, policy);
        // Same warm-up discipline as the clean-channel leg.
        engine.run_batch(&burst_requests);
        let before = engine.stats();
        let start = Instant::now();
        let done = engine.run_batch(&burst_requests);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(done.len(), burst_requests.len());
        assert!(
            done.iter().all(|r| !r.outcome.aborted),
            "protocol bug in {} under burst channel",
            kind.name()
        );
        let after = engine.stats();
        let row = BurstRow {
            scheme: kind.name(),
            requests_per_sec: burst_requests.len() as f64 / elapsed.max(1e-12),
            corrupt_reads: after.corrupt_reads - before.corrupt_reads,
            abandoned: after.abandoned - before.abandoned,
            stale_restarts: after.stale_restarts - before.stale_restarts,
        };
        // A burst leg that never corrupts a read measures nothing.
        assert!(
            row.corrupt_reads > 0,
            "{}: burst channel produced no corrupt reads",
            kind.name()
        );
        println!(
            "{:<22} {:>12.0} {:>12} {:>12} {:>14}",
            row.scheme, row.requests_per_sec, row.corrupt_reads, row.abandoned, row.stale_restarts
        );
        burst_rows.push(row);
    }

    if let Some(dir) = &cli.metrics_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(1);
        }
        for (scheme, hub) in &hubs {
            let path = format!("{dir}/{}.json", file_stem(scheme));
            let doc = export::to_json(scheme, hub);
            debug_assert!(export::validate(&doc).is_ok());
            if let Err(e) = std::fs::write(&path, doc) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        let labelled: Vec<(&str, &MetricsHub)> = hubs.iter().map(|(s, h)| (*s, h)).collect();
        let prom_path = format!("{dir}/metrics.prom");
        if let Err(e) = std::fs::write(&prom_path, export::to_prometheus(&labelled)) {
            eprintln!("cannot write {prom_path}: {e}");
            std::process::exit(1);
        }
        println!(
            "wrote {} metrics documents + metrics.prom to {dir}",
            hubs.len()
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"engine\",");
    let _ = writeln!(json, "  \"clients\": {},", cli.clients);
    let _ = writeln!(json, "  \"records\": {},", cli.records);
    let _ = writeln!(
        json,
        "  \"shards\": {},",
        cli.shards.map_or("null".into(), |n| n.to_string())
    );
    json.push_str("  \"schemes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"requests\": {}, \"elapsed_sec\": {:.6}, \
             \"requests_per_sec\": {:.1}, \"peak_in_flight\": {}, \"events\": {}, \
             \"wake_batches\": {}, \"corrupt_reads\": {}, \"abandoned\": {}, \
             \"stale_restarts\": {}, \"version_skews\": {}}}",
            json_escape(r.scheme),
            cli.clients,
            r.elapsed_sec,
            r.requests_per_sec,
            r.stats.peak_in_flight,
            r.stats.events,
            r.stats.wake_batches,
            r.stats.corrupt_reads,
            r.stats.abandoned,
            r.stats.stale_restarts,
            r.stats.version_skews,
        );
        // Quantities that weren't measured are omitted outright — a row
        // never carries a `null` placeholder for a disabled measurement.
        if let Some(s) = r.reference_speedup {
            json.pop();
            let _ = write!(json, ", \"reference_speedup\": {s:.2}}}");
        }
        if let (Some(slow), Some(ff)) = (r.slow_path_requests_per_sec, r.fast_forward_speedup) {
            json.pop();
            let _ = write!(
                json,
                ", \"slow_path_requests_per_sec\": {slow:.1}, \
                 \"fast_forward_speedup\": {ff:.2}}}"
            );
        }
        if let Some(s) = r.observed_requests_per_sec {
            json.pop();
            let _ = write!(json, ", \"observed_requests_per_sec\": {s:.1}}}");
        }
        if let Some(f) = &r.sharded {
            // Reopen the object to append the sharded block.
            json.pop();
            let _ = write!(
                json,
                ", \"sharded_requests_per_sec\": {:.1}, \"shard_speedup\": {:.3}, \
                 \"scaling_efficiency\": {:.3}, \"shard_load_ratio\": {:.4}, \
                 \"shard_busy_variance\": {:.1}, \"scatter_merge_sec\": {:.6}, \
                 \"per_shard\": [",
                f.requests_per_sec,
                f.speedup,
                f.efficiency,
                f.load_ratio,
                f.busy_variance,
                f.merge_sec
            );
            for (j, s) in f.per_shard.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}{{\"shard\": {}, \"requests\": {}, \"events\": {}, \
                     \"requests_per_sec\": {:.1}, \"busy_ticks\": {}, \"idle_ticks\": {}}}",
                    if j == 0 { "" } else { ", " },
                    s.shard,
                    s.requests,
                    s.events,
                    s.requests_per_sec(),
                    f.busy_ticks.get(j).copied().unwrap_or(0),
                    f.idle_ticks.get(j).copied().unwrap_or(0),
                );
            }
            json.push_str("]}");
        }
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"skewed\": {{\"theta\": {SKEW_THETA}, \"disks\": {SKEW_DISKS}, \"requests\": {skew_clients}, \"schemes\": ["
    );
    for (i, r) in skew_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"requests_per_sec\": {:.1}, \"mean_access\": {:.1}, \
             \"disks_requests_per_sec\": {:.1}, \"disks_mean_access\": {:.1}, \
             \"access_improvement\": {:.3}}}",
            json_escape(r.scheme),
            r.requests_per_sec,
            r.mean_access,
            r.disks_requests_per_sec,
            r.disks_mean_access,
            r.mean_access / r.disks_mean_access.max(1e-12),
        );
        json.push_str(if i + 1 < skew_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]},\n");
    let _ = writeln!(
        json,
        "  \"burst\": {{\"churn\": {BURST_CHURN}, \"requests\": {burst_clients}, \"schemes\": ["
    );
    for (i, r) in burst_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"scheme\": \"{}\", \"requests_per_sec\": {:.1}, \"corrupt_reads\": {}, \
             \"abandoned\": {}, \"stale_restarts\": {}}}",
            json_escape(r.scheme),
            r.requests_per_sec,
            r.corrupt_reads,
            r.abandoned,
            r.stale_restarts,
        );
        json.push_str(if i + 1 < burst_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]}\n}\n");
    std::fs::write(&cli.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", cli.out);
        std::process::exit(1);
    });
    println!("\nwrote {}", cli.out);
}
