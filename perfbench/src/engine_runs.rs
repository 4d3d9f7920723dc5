//! The two slab-engine workloads.
//!
//! `frozen-100k`: 100 000 requests for present keys, all tuned in within
//! 16 ticks, against frozen programs of 1 000 records on a lossless
//! channel. `churn-lossy`: 20 000 Poisson arrivals spread over a 16-cycle
//! horizon, against programs that churn 10 % per cycle, behind a
//! Gilbert–Elliott chain with outage windows and bounded back-off retry.
//!
//! Both run all eight schemes, each through one `Engine` warmed by an
//! untimed batch, and time whole `run_batch` calls, one batch per scheme
//! per pass, for the run's seconds.

use std::time::{Duration, Instant};

use bda_bench::SchemeKind;
use bda_core::{
    BurstModel, ChannelModel, DynSystem, Key, OutageSchedule, Params, RetryPolicy, Ticks,
};
use bda_datagen::{Arrivals, DatasetBuilder, Prng};
use bda_obs::{sample_indices, WindowSpec};
use bda_sim::engine::reference::run_requests_reference_channel;
use bda_sim::{CompletedRequest, Engine, EngineStats, ShardedEngine, UpdateSpec};

use crate::report::Report;
use crate::stats::{family_rate, fastest, iqr_share, median, rank_quantile};
use crate::trace::{self, Ctx, Tracer};
use crate::walk::{channel_checks, slot_loop};
use crate::{is_scan, model_access, model_error, slug, Figures};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Frozen,
    Churn,
}

const RECORDS: usize = 1_000;
const FROZEN_REQUESTS: usize = 100_000;
/// Every frozen client tunes in within this many ticks, less than one
/// bucket, so the whole population is in flight at once.
const TUNE_IN_TICKS: usize = 16;
const CHURN_REQUESTS: usize = 20_000;
const CHURN_RATE: f64 = 0.10;
const HORIZON_CYCLES: u32 = 16;
/// Set-ups before the first pass; each pass adds one more, and `setup_s`
/// is the median of them all.
const SETUP_REPS: u64 = 3;
/// Fewest timed passes, so a traced run has a recorded and an unrecorded
/// pass to compare.
const MIN_PASSES: u64 = 2;
/// Requests per scheme replayed through the direct walker and the
/// reference oracle.
const CHECK_SAMPLE: usize = 1_000;
/// The fast-forward comparison runs on the first 1/`FF_SHARE` of the
/// batch: bucket-by-bucket scans are slow.
const FF_SHARE: usize = 10;

type Air = (ChannelModel, RetryPolicy);

impl Shape {
    /// The channel and retry policy every client of the workload sees.
    fn air(self) -> Air {
        match self {
            Shape::Frozen => (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
            // engine_bench's bursty leg: ~17 % stationary loss from a
            // Gilbert–Elliott chain plus 10 % outage windows, recovered by
            // bounded exponential back-off. The channel is part of the
            // workload, not of its seeded inputs: with the fault pattern
            // reseeded too, mean access time moves 12 % from seed to seed.
            Shape::Churn => {
                let chain = BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57);
                (
                    ChannelModel::burst(chain).with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
                    RetryPolicy::bounded(24)
                        .with_backoff_cap(8)
                        .with_jitter(0x117),
                )
            }
        }
    }
}

struct Inputs {
    systems: Vec<Box<dyn DynSystem>>,
    requests: Vec<(Ticks, Key)>,
}

/// Dataset, the eight programs (each with its epoch rebuilds when
/// churning) and the request batch: everything before the first timed
/// request.
fn build_inputs(
    shape: Shape,
    seed: u64,
    params: &Params,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<Inputs, String> {
    let (dataset, _) = tracer.span("datagen", ctx, |_| {
        DatasetBuilder::new(RECORDS, seed).build()
    });
    let dataset = dataset.map_err(|e| format!("dataset: {e}"))?;
    let churn = UpdateSpec {
        rate: CHURN_RATE,
        seed: seed ^ 0x0DD,
        horizon_cycles: HORIZON_CYCLES,
    };
    let mut systems = Vec::with_capacity(SchemeKind::ALL.len());
    for kind in SchemeKind::ALL {
        let (built, _) = tracer.span("scheme.build", ctx, |_| match shape {
            Shape::Frozen => kind.build(&dataset, params),
            Shape::Churn => kind.build_versioned(&dataset, params, churn),
        });
        systems.push(built.map_err(|e| format!("{}: {e}", kind.name()))?);
    }
    let shortest_cycle = systems.iter().map(|s| s.cycle_len()).min().unwrap_or(1);
    let (requests, _) = tracer.span("datagen", ctx, |_| {
        let keys: Vec<Key> = dataset.keys().collect();
        let mut rng = Prng::new(seed ^ 0x5EED);
        let mut key = move || keys[rng.below(keys.len() as u64) as usize];
        match shape {
            Shape::Frozen => (0..FROZEN_REQUESTS)
                .map(|i| ((i % TUNE_IN_TICKS) as Ticks, key()))
                .collect(),
            Shape::Churn => {
                // Arrivals span the horizon of the shortest program, so
                // every scheme sees them while its programs still churn.
                let horizon = f64::from(HORIZON_CYCLES) * shortest_cycle as f64;
                let mut arrivals = Arrivals::new(horizon / CHURN_REQUESTS as f64, seed);
                (0..CHURN_REQUESTS)
                    .map(|_| (arrivals.next_arrival(), key()))
                    .collect::<Vec<_>>()
            }
        }
    });
    Ok(Inputs { systems, requests })
}

/// The exact counters every batch must repeat at one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    events: u64,
    wake_batches: u64,
    corrupt_reads: u64,
    abandoned: u64,
    stale_restarts: u64,
    version_skews: u64,
    access_sum: u128,
    tuning_sum: u128,
}

impl Counters {
    fn of(before: EngineStats, after: EngineStats, out: &[CompletedRequest]) -> Self {
        Counters {
            events: after.events - before.events,
            wake_batches: after.wake_batches - before.wake_batches,
            corrupt_reads: after.corrupt_reads - before.corrupt_reads,
            abandoned: after.abandoned - before.abandoned,
            stale_restarts: after.stale_restarts - before.stale_restarts,
            version_skews: after.version_skews - before.version_skews,
            access_sum: out.iter().map(|r| u128::from(r.outcome.access)).sum(),
            tuning_sum: out.iter().map(|r| u128::from(r.outcome.tuning)).sum(),
        }
    }

    /// The first counter that differs from `other`, by name.
    fn first_difference(&self, other: &Counters) -> Option<&'static str> {
        [
            ("events", self.events == other.events),
            ("wake_batches", self.wake_batches == other.wake_batches),
            ("corrupt_reads", self.corrupt_reads == other.corrupt_reads),
            ("abandoned", self.abandoned == other.abandoned),
            (
                "stale_restarts",
                self.stale_restarts == other.stale_restarts,
            ),
            ("version_skews", self.version_skews == other.version_skews),
            ("access_sum", self.access_sum == other.access_sum),
            ("tuning_sum", self.tuning_sum == other.tuning_sum),
        ]
        .into_iter()
        .find(|(_, same)| !same)
        .map(|(name, _)| name)
    }
}

/// Requests whose outcome is wrong on its face: an aborted walk, or on the
/// frozen workload, whose keys are all present, a key not found.
fn wrong_answers(shape: Shape, out: &[CompletedRequest]) -> u64 {
    out.iter()
        .filter(|r| r.outcome.aborted || (shape == Shape::Frozen && !r.outcome.found))
        .count() as u64
}

/// Positions where two runs over the same requests disagree.
fn mismatches(a: &[CompletedRequest], b: &[CompletedRequest]) -> u64 {
    assert_eq!(a.len(), b.len(), "compared runs cover different batches");
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u64
}

/// Replay a seeded sample of the batch through the direct walker and the
/// reference oracle. Returns the sample size, the requests on which either
/// disagrees with the engine's outcome, and the walker's seconds.
fn replay_sample(
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    out: &[CompletedRequest],
    (channel, policy): Air,
    seed: u64,
    tracer: &Tracer,
    ctx: Ctx,
) -> (u64, u64, f64) {
    let picked = sample_indices(seed, requests.len() as u64, CHECK_SAMPLE);
    let sample: Vec<(Ticks, Key)> = picked.iter().map(|&i| requests[i as usize]).collect();
    let (walked, probe_s) = tracer.span("machine.probe", ctx, |_| {
        sample
            .iter()
            .map(|&(t, k)| sys.probe_with_channel(k, t, channel, policy))
            .collect::<Vec<_>>()
    });
    let (oracle, _) = tracer.span("check.reference", ctx, |_| {
        run_requests_reference_channel(sys, &sample, channel, policy)
    });
    let wrong = picked
        .iter()
        .zip(walked.iter().zip(&oracle))
        .filter(|(&i, (walker, reference))| {
            let engine = out[i as usize].outcome;
            **walker != engine || reference.outcome != engine
        })
        .count();
    (sample.len() as u64, wrong as u64, probe_s)
}

/// What the warm-up batch of one scheme established.
struct Warm<'a> {
    kind: SchemeKind,
    sys: &'a dyn DynSystem,
    engine: Engine<'a>,
    baseline: Counters,
    sampled: u64,
    probe_s: f64,
    mean_access: f64,
}

pub fn run(
    shape: Shape,
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
    figures: &mut Figures,
) -> Result<(), String> {
    let params = Params::paper();
    let air = shape.air();

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for rep in 0..SETUP_REPS {
        // Free the previous repetition before building the next.
        drop(inputs.take());
        let (built, secs) = tracer.span("setup", Ctx::default().pass(rep), |ctx| {
            build_inputs(shape, seed, &params, tracer, ctx)
        });
        inputs = Some(built?);
        setup_s.push(secs);
    }
    let Inputs { systems, requests } = inputs.ok_or("no set-up ran")?;
    let n = requests.len() as u64;

    // One untimed batch per scheme warms its engine's arena. Its outcomes
    // are checked, and its counters are what every timed batch repeats.
    let mut warm: Vec<Warm> = Vec::new();
    let mut access: Vec<u64> = Vec::with_capacity(requests.len() * systems.len());
    let mut tuning_sum = 0u128;
    for (kind, sys) in SchemeKind::ALL.into_iter().zip(&systems) {
        let sys = sys.as_ref();
        let mut engine = Engine::with_channel(sys, air.0, air.1);
        let (out, _) = tracer.span("engine.warmup", Ctx::default(), |_| {
            engine.run_batch(&requests)
        });
        report.tally(n, wrong_answers(shape, &out), || {
            format!("{} requests aborted or missed a present key", kind.name())
        });
        let (sampled, wrong, probe_s) =
            replay_sample(sys, &requests, &out, air, seed, tracer, Ctx::default());
        report.tally(sampled, wrong, || {
            format!("{} replays disagreed with the engine", kind.name())
        });
        let baseline = Counters::of(EngineStats::default(), engine.stats(), &out);
        access.extend(out.iter().map(|r| r.outcome.access));
        tuning_sum += baseline.tuning_sum;
        warm.push(Warm {
            kind,
            sys,
            engine,
            baseline,
            sampled,
            probe_s,
            mean_access: baseline.access_sum as f64 / n as f64,
        });
    }

    // Timed passes. A traced run alternates recorded and unrecorded
    // passes; their ratio is the tracing overhead.
    let unrecorded = Tracer::new(false);
    let mut batch_s: Vec<Vec<f64>> = vec![Vec::new(); warm.len()];
    let mut recorded: Vec<bool> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut pass = 0u64;
    while pass < MIN_PASSES || Instant::now() < deadline {
        // One more set-up per pass, so set-up samples spread over the run
        // as the batches do.
        let (extra, secs) = tracer.span("setup", Ctx::default().pass(SETUP_REPS + pass), |ctx| {
            build_inputs(shape, seed, &params, tracer, ctx)
        });
        drop(extra?);
        setup_s.push(secs);
        let record = pass.is_multiple_of(2);
        let t = if record { tracer } else { &unrecorded };
        for (w, secs) in warm.iter_mut().zip(&mut batch_s) {
            let before = w.engine.stats();
            let (out, s) = t.span("engine.run_batch", Ctx::default().pass(pass), |_| {
                w.engine.run_batch(&requests)
            });
            let got = Counters::of(before, w.engine.stats(), &out);
            if let Some(counter) = got.first_difference(&w.baseline) {
                report.diverged(counter, w.kind.name(), pass);
            }
            report.tally(n, wrong_answers(shape, &out), || {
                format!("{} requests aborted or missed a present key", w.kind.name())
            });
            secs.push(s);
        }
        recorded.push(record);
        pass += 1;
    }

    let passes = recorded.len();
    let pass_s: Vec<f64> = (0..passes)
        .map(|p| batch_s.iter().map(|s| s[p]).sum())
        .collect();
    eprintln!(
        "perfbench: {passes} passes, within-run spread of pass time {:.3}",
        iqr_share(&pass_s)
    );
    // The rest of the host only ever slows a batch down, so each scheme's
    // fastest batch of the run is the steadiest estimate of its cost.
    let fastest_in = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        batch_s
            .iter()
            .map(|s| fastest((0..s.len()).filter(|&p| keep(p)).map(|p| s[p])))
            .collect()
    };
    let best = fastest_in(&|_| true);
    let family = |scan: bool| {
        let batches: Vec<(u64, f64)> = warm
            .iter()
            .zip(&best)
            .filter(|(w, _)| is_scan(w.kind) == scan)
            .map(|(_, &s)| (n, s))
            .collect();
        family_rate(&batches)
    };
    access.sort_unstable();
    let (p999, _) = rank_quantile(&access, 0.999);
    let errors: Vec<f64> = warm
        .iter()
        .filter_map(|w| {
            Some(model_error(
                w.mean_access,
                model_access(w.kind, &params, RECORDS)?,
            ))
        })
        .collect();
    figures.set("scan_requests_per_s", family(true));
    figures.set("index_requests_per_s", family(false));
    figures.set("sweep_s", best.iter().sum());
    figures.set("setup_s", median(&setup_s));
    figures.set(
        "access_ticks_mean",
        access.iter().map(|&a| u128::from(a)).sum::<u128>() as f64 / access.len() as f64,
    );
    figures.set("access_ticks_p999", p999 as f64);
    figures.set("tuning_ticks_mean", tuning_sum as f64 / access.len() as f64);
    figures.set(
        "analytical.access_model_error",
        errors.iter().sum::<f64>() / errors.len() as f64,
    );

    if !tracer.enabled() {
        return Ok(());
    }
    let traced: f64 = fastest_in(&|p| recorded[p]).iter().sum();
    let untraced: f64 = fastest_in(&|p| !recorded[p]).iter().sum();
    figures.set("trace.overhead", untraced / traced);
    figures.set(
        "scheme.buckets",
        warm.iter().map(|w| w.sys.num_buckets()).sum::<usize>() as f64,
    );

    // Traced run: each layer on its own, on the same inputs.
    let mut fam: [Family; 2] = Default::default();
    let mut paired = Paired::default();
    let mut busy = [0u64; 2];
    let (mut checks, mut check_s) = (0u64, 0.0);
    let mut totals = EngineStats::default();
    let sub = &requests[..requests.len() / FF_SHARE];
    let all = (n * warm.len() as u64) as f64;
    for (w, best) in warm.into_iter().zip(best) {
        let Warm {
            kind,
            sys,
            mut engine,
            baseline,
            sampled,
            probe_s,
            mean_access,
        } = w;
        let name = kind.name();
        let ctx = Ctx::default();
        let f = &mut fam[usize::from(is_scan(kind))];
        figures.set(
            &format!("engine.requests_per_s.{}", slug(kind)),
            n as f64 / best,
        );
        if let Some(model) = model_access(kind, &params, RECORDS) {
            figures.set(
                &format!("analytical.access_error.{}", slug(kind)),
                model_error(mean_access, model),
            );
        }
        f.batch_s += best;
        f.events += baseline.events;
        f.sampled += sampled;
        f.probe_s += probe_s;
        totals.wake_batches += baseline.wake_batches;
        totals.events += baseline.events;
        totals.corrupt_reads += baseline.corrupt_reads;
        totals.abandoned += baseline.abandoned;
        totals.stale_restarts += baseline.stale_restarts;
        totals.version_skews += baseline.version_skews;
        totals.peak_in_flight = totals.peak_in_flight.max(engine.stats().peak_in_flight);

        let (out, _) = tracer.span("engine.rerun", ctx, |_| engine.run_batch(&requests));
        let ((steps, wrong), slot_s) = tracer.span("machine.slot_loop", ctx, |_| {
            slot_loop(sys, &requests, air, out.iter().map(|r| r.outcome))
        });
        report.tally(n, wrong, || format!("{name} slot-loop outcomes differed"));
        f.steps += steps;
        f.slot_s += slot_s;

        // Every timed batch below directly follows an untimed batch of its
        // own engine, so no engine starts warmer than another, and each
        // comparison runs forward then backward and keeps the fastest.
        let mut wrong = 0;
        let mut ff = Engine::with_channel(sys, air.0, air.1);
        let mut ff_s = [f64::INFINITY; 2];
        let mut off_events = 0;
        for on in [true, false, false, true] {
            ff.set_fast_forward(on);
            ff.run_batch(sub);
            let before = ff.stats().events;
            let span = if on { "ff.on" } else { "ff.off" };
            let (got, s) = tracer.span(span, ctx, |_| ff.run_batch(sub));
            if !on {
                off_events = ff.stats().events - before;
            }
            wrong += mismatches(&got, &out[..sub.len()]);
            let k = usize::from(!on);
            ff_s[k] = ff_s[k].min(s);
        }
        f.ff_on_s += ff_s[0];
        f.ff_off_s += ff_s[1];
        f.ff_off_events += off_events;

        let mut one = ShardedEngine::with_channel(sys, 1, air.0, air.1);
        let mut two = ShardedEngine::with_channel(sys, 2, air.0, air.1);
        let mut observed = Engine::with_channel(sys, air.0, air.1);
        observed.enable_metrics();
        let mut merge_s = f64::INFINITY;
        let mut paired_s = [f64::INFINITY; 4];
        {
            type Run<'r> = Box<dyn FnMut() -> Vec<CompletedRequest> + 'r>;
            let mut runs: [(&'static str, Run); 4] = [
                ("engine.paired", Box::new(|| engine.run_batch(&requests))),
                ("sharded.1", Box::new(|| one.run_batch(&requests))),
                (
                    "sharded.2",
                    Box::new(|| {
                        let done = two.run_batch(&requests);
                        merge_s = merge_s.min(two.last_merge_sec());
                        done
                    }),
                ),
                ("obs.run_batch", Box::new(|| observed.run_batch(&requests))),
            ];
            for i in [0, 1, 2, 3, 3, 2, 1, 0] {
                let (span, run) = &mut runs[i];
                run();
                let (got, s) = tracer.span(span, ctx, |_| run());
                wrong += mismatches(&got, &out);
                paired_s[i] = paired_s[i].min(s);
            }
        }
        report.tally(8 * n + 4 * sub.len() as u64, wrong, || {
            format!("{name} sharded, observed or fast-forward outcomes differed")
        });
        let [plain_s, one_s, two_s, observed_s] = paired_s;
        paired.add(&Paired {
            plain_s,
            one_s,
            two_s,
            merge_s,
            observed_s,
        });

        let mut windowed = ShardedEngine::with_channel(sys, 2, air.0, air.1);
        windowed.enable_metrics_windowed(WindowSpec::new(sys.cycle_len()));
        windowed.run_batch(&requests);
        for (b, hub) in busy.iter_mut().zip(windowed.take_shard_metrics()) {
            *b += hub.windows.map_or(0, |series| series.totals().busy_ticks);
        }

        let horizon = out
            .iter()
            .map(|r| r.arrival + r.outcome.access)
            .max()
            .unwrap_or(0);
        let (c, s) = tracer.span("channel.check", ctx, |_| {
            channel_checks(air.0, sys, horizon)
        });
        checks += c;
        check_s += s;
    }

    let spans = tracer.spans();
    let per_rep = |name: &str| {
        let reps: Vec<f64> = (0..setup_s.len() as u64)
            .map(|r| trace::self_s(&spans, name, |s| s.pass == r))
            .collect();
        median(&reps)
    };
    figures.set("datagen.build_s", per_rep("datagen"));
    figures.set("scheme.build_s", per_rep("scheme.build"));
    let per_family = (n * 4) as f64;
    for (f, suffix) in fam.iter().zip(["index", "scan"]) {
        figures.set(
            &format!("machine.ns_per_request.{suffix}"),
            f.slot_s * 1e9 / per_family,
        );
        figures.set(
            &format!("machine.steps_per_request.{suffix}"),
            f.steps as f64 / per_family,
        );
        figures.set(
            &format!("machine.probe_ns_per_request.{suffix}"),
            f.probe_s * 1e9 / f.sampled as f64,
        );
        figures.set(
            &format!("engine.ns_per_event.{suffix}"),
            (f.batch_s - f.slot_s) * 1e9 / f.events as f64,
        );
        figures.set(
            &format!("engine.events_per_request.{suffix}"),
            f.events as f64 / per_family,
        );
    }
    let [index, scan] = &fam;
    figures.set("ff.speedup.scan", scan.ff_off_s / scan.ff_on_s);
    figures.set("ff.ratio.index", index.ff_off_s / index.ff_on_s);
    figures.set(
        "ff.events_per_request.off.scan",
        scan.ff_off_events as f64 / (sub.len() * 4) as f64,
    );
    figures.set(
        "engine.events_per_batch",
        totals.events as f64 / totals.wake_batches as f64,
    );
    figures.set("engine.peak_in_flight", totals.peak_in_flight as f64);
    figures.set("channel.ns_per_check", check_s * 1e9 / checks as f64);
    figures.set(
        "channel.corrupt_reads_per_request",
        totals.corrupt_reads as f64 / all,
    );
    figures.set("channel.abandon_rate", totals.abandoned as f64 / all);
    figures.set(
        "versioned.stale_restarts_per_request",
        totals.stale_restarts as f64 / all,
    );
    figures.set(
        "versioned.version_skews_per_request",
        totals.version_skews as f64 / all,
    );
    figures.set("sharded.one_over_plain", paired.plain_s / paired.one_s);
    figures.set("sharded.speedup_2", paired.plain_s / paired.two_s);
    figures.set("sharded.merge_s", paired.merge_s);
    figures.set(
        "sharded.load_ratio",
        busy[0].max(busy[1]) as f64 / ((busy[0] + busy[1]) as f64 / 2.0),
    );
    figures.set("obs.observed_over_noop", paired.plain_s / paired.observed_s);
    Ok(())
}

/// Fastest batch times of the engines compared with the plain one, summed
/// over schemes in a traced run.
#[derive(Debug, Default)]
struct Paired {
    plain_s: f64,
    one_s: f64,
    two_s: f64,
    merge_s: f64,
    observed_s: f64,
}

impl Paired {
    fn add(&mut self, other: &Paired) {
        self.plain_s += other.plain_s;
        self.one_s += other.one_s;
        self.two_s += other.two_s;
        self.merge_s += other.merge_s;
        self.observed_s += other.observed_s;
    }
}

/// Per-family sums of the traced run's layer measurements.
#[derive(Debug, Default)]
struct Family {
    batch_s: f64,
    events: u64,
    steps: u64,
    slot_s: f64,
    sampled: u64,
    probe_s: f64,
    ff_on_s: f64,
    ff_off_s: f64,
    ff_off_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> Counters {
        Counters {
            events: 10,
            wake_batches: 4,
            corrupt_reads: 0,
            abandoned: 0,
            stale_restarts: 0,
            version_skews: 0,
            access_sum: 100,
            tuning_sum: 50,
        }
    }

    #[test]
    fn the_first_diverged_counter_is_named() {
        let a = counters();
        assert_eq!(a.first_difference(&a), None);
        let b = Counters {
            wake_batches: 5,
            tuning_sum: 51,
            ..a
        };
        assert_eq!(a.first_difference(&b), Some("wake_batches"));
    }
}
