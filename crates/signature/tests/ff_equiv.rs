//! Fast-forward equivalence for the signature schemes.
//!
//! A fast-forwarded walk must be indistinguishable from the bucket-by-bucket
//! walk in everything but step count: same verdict, same access and tuning
//! time, same probe and false-drop counts, and the same per-phase span
//! decomposition — on lossless and error-prone channels alike, over frozen
//! programs and across the boundary of a churning one.

use bda_core::{
    run_machine_observed_channel, AccessOutcome, Broadcast, BurstModel, Channel, ChannelModel,
    Dataset, DiskConfig, Epoch, ErrorModel, Key, OutageSchedule, Params, PhaseSpans,
    ProgramTimeline, ProtocolMachine, Record, RetryPolicy, Scheme, SpanRecorder, System, Ticks,
    Walk, WalkStep,
};
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SigParams, SigPayload,
    SimpleSignatureDisksScheme, SimpleSignatureScheme,
};

fn dataset(n: u64) -> Dataset {
    dataset_of((0..n).collect())
}

fn dataset_of(ids: Vec<u64>) -> Dataset {
    Dataset::new(
        ids.into_iter()
            .map(|i| Record::new(Key(i * 3), vec![i * 3, i + 500, i % 11]))
            .collect(),
    )
    .unwrap()
}

/// Step a span-recording walk to completion with fast-forward `ff`;
/// `ff = false` is the bucket-by-bucket side. Also returns every step
/// through `Done`.
fn run_walk<M: ProtocolMachine<SigPayload>>(
    ch: &Channel<SigPayload>,
    machine: M,
    tune_in: Ticks,
    (channel, policy): (ChannelModel, RetryPolicy),
    ff: bool,
) -> (AccessOutcome, PhaseSpans, Vec<WalkStep>) {
    let mut walk =
        Walk::with_channel_recorder(ch, machine, tune_in, channel, policy, SpanRecorder::new());
    walk.set_fast_forward(ff);
    let mut steps = Vec::new();
    loop {
        let step = walk.step();
        steps.push(step);
        if let WalkStep::Done(out) = step {
            return (out, walk.recorder().spans, steps);
        }
    }
}

/// The start instants of the reads in a step trace over `ch`.
fn read_starts<'s>(
    ch: &'s Channel<SigPayload>,
    steps: &'s [WalkStep],
) -> impl Iterator<Item = Ticks> + 's {
    steps.iter().filter_map(|s| match *s {
        WalkStep::Read { bucket, until, .. } => Some(until - Ticks::from(ch.bucket(bucket).size)),
        _ => None,
    })
}

/// The corrupted reads a step trace shows. A fast-forwarding walk shows
/// fewer than the stepped walk when its planner recovered some inside a
/// run.
fn shown_retries(ch: &Channel<SigPayload>, air: ChannelModel, steps: &[WalkStep]) -> usize {
    read_starts(ch, steps).filter(|&t| air.corrupted(t)).count()
}

/// The longest run of consecutive outage reads a step trace shows.
fn longest_outage_streak(ch: &Channel<SigPayload>, air: ChannelModel, steps: &[WalkStep]) -> u32 {
    read_starts(ch, steps)
        .scan(0, |streak, t| {
            *streak = if air.in_outage(t) { *streak + 1 } else { 0 };
            Some(*streak)
        })
        .max()
        .unwrap_or(0)
}

/// Compare the stepped and fast-forwarded walks of `system` for present
/// and absent keys (a run ends where coverage completes) from tune-ins
/// spread over the cycle and inside its last bucket (the first run ends at
/// the cycle's end), lossless and lossy (under rare loss a run also ends
/// at the lossy-air cut). Planners recover corrupted reads inside their
/// run, up to a retry-count give-up (`bounded(3)` at 30 % loss) or a
/// deadline give-up, under the `churn-lossy` benchmark workload's burst
/// chain, outages and jittered exponential back-off, and through outages
/// several cycles long, read in streaks of two and more (tune-ins spread
/// over twelve cycles); tune-ins within 24 cycles of `Ticks::MAX` meet a
/// 16-cycle back-off, folded only where it ends at least four cycles
/// short of the clock's end. Every air but the rare loss must fold a
/// corrupted read.
/// Returns the false drops of walks whose fast-forward took fewer steps —
/// false drops inside a collapsed run.
fn check_scheme<S>(system: &S, n: u64, collapses_lossless_scan: bool) -> u32
where
    S: System<Payload = SigPayload>,
    S::Machine: Clone,
{
    let ch = system.channel();
    let cycle = ch.cycle_len();
    let last = ch.start_of(ch.num_buckets() - 1);
    let keys: Vec<Key> = (0..n)
        .step_by(7)
        .map(|i| Key(i * 3))
        .chain([Key(1), Key(299)]) // absent: full-coverage scans
        .collect();
    let tune_ins: Vec<Ticks> = (0..6u64)
        .map(|s| s * cycle / 6 + 13 * s)
        .chain([last + 1, cycle - 1])
        .collect();
    let spread: Vec<Ticks> = (0..12u64).map(|k| k * cycle + 13 * k).collect();
    let near_max: Vec<Ticks> = (3..=12u64)
        .map(|k| Ticks::MAX - 2 * k * cycle + 13)
        .collect();
    let iid = |loss| ChannelModel::from(ErrorModel::new(loss, 0x5EED));
    let burst = ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
        .with_outages(OutageSchedule::new(3_000, 300, 0x0A7));
    let long_outages = iid(0.05).with_outages(OutageSchedule::new(12 * cycle, 3 * cycle, 0x12));
    let unbounded = RetryPolicy::UNBOUNDED;
    let airs = [
        (ChannelModel::NONE, unbounded, &tune_ins),
        (iid(0.15), unbounded, &tune_ins),
        (iid(0.01), unbounded, &tune_ins),
        (iid(0.3), RetryPolicy::bounded(3), &tune_ins),
        (iid(0.3), unbounded.with_deadline(cycle / 3), &tune_ins),
        (
            burst,
            RetryPolicy::bounded(24)
                .with_backoff_cap(8)
                .with_jitter(0x117),
            &tune_ins,
        ),
        (long_outages, unbounded, &spread),
        (burst, RetryPolicy::bounded(24).with_backoff(16), &near_max),
    ];
    let name = system.scheme_name();
    let mut collapsed_drops = 0;
    for (channel, policy, tune_ins) in airs {
        let air = (channel, policy);
        let (mut folded, mut abandoned, mut streak) = (0, 0, 0);
        for &key in &keys {
            for &tune_in in tune_ins {
                let what = format!("{name} key {key:?} tune_in {tune_in} {air:?}");
                let (slow, slow_spans, slow_steps) =
                    run_walk(ch, system.query(key), tune_in, air, false);
                let (fast, fast_spans, steps) = run_walk(ch, system.query(key), tune_in, air, true);
                if steps.len() < slow_steps.len() {
                    collapsed_drops += fast.false_drops;
                }
                assert_eq!(slow, fast, "{what}");
                assert_eq!(slow_spans, fast_spans, "spans diverged: {what}");
                // The one-shot driver is the fast-forwarding walk.
                assert_eq!(
                    run_machine_observed_channel(ch, system.query(key), tune_in, channel, policy),
                    (fast, fast_spans),
                    "one-shot driver diverged: {what}"
                );
                if collapses_lossless_scan && channel.is_lossless() && !slow.found {
                    // The whole not-found scan must collapse to a handful
                    // of wakeups: the initial probe, one fast-forwarded
                    // leap per false-dropping frame/record, and the final
                    // coverage-completing read.
                    assert!(
                        steps.len() < slow.probes as usize / 4 + 8,
                        "{name}: {} steps for {} probes",
                        steps.len(),
                        slow.probes
                    );
                }
                folded +=
                    shown_retries(ch, channel, &slow_steps) - shown_retries(ch, channel, &steps);
                abandoned += usize::from(slow.abandoned);
                streak = streak.max(longest_outage_streak(ch, channel, &slow_steps));
            }
        }
        let what = format!("{name} {air:?}");
        // Rare loss may corrupt no read a planner reaches.
        if channel.mean_loss() >= 0.1 {
            assert!(folded > 0, "{what}: a corrupted read must be folded");
        }
        if policy.max_retries == Some(3) || policy.give_up_after.is_some() {
            assert!(abandoned > 0, "{what}: some walk must give up");
        }
        if channel == long_outages {
            assert!(streak >= 2, "{what}: outages must be read in streaks");
        }
    }
    collapsed_drops
}

/// Step a span-recording walk over `tl` to completion with fast-forward
/// `ff`, returning its outcome, spans and every step through `Done`.
fn run_versioned_walk<S: System>(
    tl: &ProgramTimeline<S>,
    key: Key,
    tune_in: Ticks,
    errors: ErrorModel,
    ff: bool,
) -> (AccessOutcome, PhaseSpans, Vec<WalkStep>) {
    let policy = RetryPolicy::UNBOUNDED;
    let (src, machine) = tl.tune(key, tune_in);
    let mut walk = Walk::with_channel_recorder(
        src,
        machine,
        tune_in,
        ChannelModel::from(errors),
        policy,
        SpanRecorder::new(),
    );
    walk.set_fast_forward(ff);
    let mut steps = Vec::new();
    loop {
        let step = walk.step();
        steps.push(step);
        if let WalkStep::Done(out) = step {
            return (out, walk.recorder().spans, steps);
        }
    }
}

/// The two-epoch leg: 60 records for two cycles, then a program that
/// deleted every fifth record and inserted ten. Walks tuning in across
/// the last cycle before the boundary fast-forward up to it — a
/// non-matching signature's doze ends exactly on it — and must equal the
/// bucket-by-bucket walk in outcome and spans, version skews included.
fn check_timeline<Sch: Scheme>(scheme: &Sch)
where
    Sch::System: System<Payload = SigPayload>,
{
    let params = Params::paper();
    let old = scheme.build(&dataset(60), &params).unwrap();
    let cycle = old.channel().cycle_len();
    let boundary = 2 * cycle;
    let ids = (0..70).filter(|i| i % 5 != 0 || *i >= 60).collect();
    let new = scheme.rebuild(&dataset_of(ids), &params, 1).unwrap();
    let tl = ProgramTimeline::new(vec![
        Epoch {
            system: old,
            start: 0,
        },
        Epoch {
            system: new,
            start: boundary,
        },
    ])
    .unwrap();
    let name = System::scheme_name(&tl.epoch(0).system);
    // Kept, deleted, inserted and never-broadcast keys.
    let keys = [Key(3), Key(42), Key(0), Key(75), Key(183), Key(207), Key(1)];
    let (mut dozes_onto_boundary, mut skews, mut collapsed) = (0, 0, 0);
    for key in keys {
        for s in 0..12u64 {
            let tune_in = boundary - cycle + s * cycle / 12 + 5 * s;
            for errors in [ErrorModel::NONE, ErrorModel::new(0.15, 0x5EED)] {
                let (slow, slow_spans, steps) =
                    run_versioned_walk(&tl, key, tune_in, errors, false);
                let (fast, fast_spans, fast_steps) =
                    run_versioned_walk(&tl, key, tune_in, errors, true);
                let what = format!("{name} key {key:?} tune_in {tune_in} {errors:?}");
                assert_eq!(slow, fast, "{what}");
                assert_eq!(slow_spans, fast_spans, "{what}");
                // The one-shot driver is the fast-forwarding walk.
                let (src, machine) = tl.tune(key, tune_in);
                let policy = RetryPolicy::UNBOUNDED;
                assert_eq!(
                    run_machine_observed_channel(src, machine, tune_in, errors.into(), policy),
                    (fast, fast_spans),
                    "{what}"
                );
                skews += slow.version_skews;
                collapsed += usize::from(fast_steps.len() < steps.len());
                dozes_onto_boundary += steps
                    .iter()
                    .filter(|s| **s == WalkStep::Doze { until: boundary })
                    .count();
            }
        }
    }
    assert!(skews > 0, "{name}: walks must cross the boundary");
    assert!(collapsed > 0, "{name}: fast-forward must engage");
    assert!(
        dozes_onto_boundary > 0,
        "{name}: some doze must end exactly on the boundary"
    );
}

#[test]
fn simple_signature_fast_forward_is_bit_identical() {
    let d = dataset(60);
    let sys = SimpleSignatureScheme::new()
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&sys, 60, true);
    check_timeline(&SimpleSignatureScheme::new());
    // Broadcast disks repeat and skip records within a cycle: coverage
    // folds bucket by bucket.
    let disks = SimpleSignatureDisksScheme::new(DiskConfig::new(3))
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&disks, 60, false);
}

#[test]
fn simple_signature_runs_cross_table_words() {
    // 200 records: a lossless run from an early tune-in spans four 64-row
    // words of the bit-sliced table, and the lossy-air cut ends runs
    // inside a word. A one-disk program is the classic cycle.
    let d = dataset(200);
    let classic = SimpleSignatureScheme::new()
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&classic, 200, true);
    let one_disk = SimpleSignatureDisksScheme::new(DiskConfig::new(1))
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&one_disk, 200, true);
}

#[test]
fn integrated_signature_fast_forward_is_bit_identical() {
    let d = dataset(60);
    let sys = IntegratedSignatureScheme::new(8)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&sys, 60, true);
    check_timeline(&IntegratedSignatureScheme::new(8));
}

#[test]
fn multilevel_signature_fast_forward_is_bit_identical() {
    let d = dataset(60);
    let sys = MultiLevelSignatureScheme::new(8)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&sys, 60, true);
    check_timeline(&MultiLevelSignatureScheme::new(8));
}

#[test]
fn frame_planners_cross_table_words() {
    // 200 records in frames of two and three: a lossless run of whole
    // frames spans both 64-row words of the 100- and 67-row frame tables,
    // and multilevel's matched frames read rows across the record
    // table's four words.
    let d = dataset(200);
    let int = IntegratedSignatureScheme::new(2)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&int, 200, true);
    let ml = MultiLevelSignatureScheme::new(3)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&ml, 200, true);
}

#[test]
fn fast_forward_handles_degenerate_frames_and_tiny_signatures() {
    // group_len 1 (every frame is one record) and a 1-byte signature that
    // collides hard: maximal false-drop pressure on the planner's
    // stop-before-match rule. Simple signatures' runs end at matching
    // signatures whose data bucket is a false drop, and the sift resumes
    // after it, on the classic and the broadcast-disk layout.
    let d = dataset(40);
    let sigp = SigParams {
        sig_bytes: 1,
        bits_per_attr: 2,
    };
    let simple = SimpleSignatureScheme::with_params(sigp)
        .build(&d, &Params::paper())
        .unwrap();
    assert!(
        check_scheme(&simple, 40, false) > 0,
        "collapsed walks must false-drop"
    );
    let disks = SimpleSignatureDisksScheme::with_params(sigp, DiskConfig::new(3))
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&disks, 40, false);
    let int = IntegratedSignatureScheme::new(1)
        .with_params(sigp)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&int, 40, false);
    let ml = MultiLevelSignatureScheme::new(3)
        .with_params(sigp)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&ml, 40, false);
}
