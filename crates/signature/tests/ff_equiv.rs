//! Fast-forward equivalence for the signature schemes.
//!
//! A fast-forwarded walk must be indistinguishable from the bucket-by-bucket
//! walk in everything but step count: same verdict, same access and tuning
//! time, same probe and false-drop counts, and the same per-phase span
//! decomposition — on lossless and error-prone channels alike.

use bda_core::{
    run_machine_observed, AccessOutcome, Channel, Dataset, ErrorModel, Key, Params, PhaseSpans,
    ProtocolMachine, Record, RetryPolicy, Scheme, SpanRecorder, System, Ticks, Walk, WalkStep,
};
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SigPayload, SimpleSignatureScheme,
};

fn dataset(n: u64) -> Dataset {
    Dataset::new(
        (0..n)
            .map(|i| Record::new(Key(i * 3), vec![i * 3, i + 500, i % 11]))
            .collect(),
    )
    .unwrap()
}

/// Step a span-recording walk to completion with fast-forward `ff`;
/// `ff = false` is the bucket-by-bucket side. Also returns the steps taken.
fn run_walk<M: ProtocolMachine<SigPayload>>(
    ch: &Channel<SigPayload>,
    machine: M,
    tune_in: Ticks,
    errors: ErrorModel,
    policy: RetryPolicy,
    ff: bool,
) -> (AccessOutcome, PhaseSpans, u64) {
    let mut walk = Walk::with_recorder(ch, machine, tune_in, errors, policy, SpanRecorder::new());
    walk.set_fast_forward(ff);
    let mut steps = 0u64;
    loop {
        steps += 1;
        if let WalkStep::Done(out) = walk.step() {
            return (out, walk.recorder().spans, steps);
        }
    }
}

fn check_scheme<S>(system: &S, n: u64, collapses_lossless_scan: bool)
where
    S: System<Payload = SigPayload>,
    S::Machine: Clone,
{
    let ch = system.channel();
    let cycle = ch.cycle_len();
    let keys: Vec<Key> = (0..n)
        .step_by(7)
        .map(|i| Key(i * 3))
        .chain([Key(1), Key(299)]) // absent: full-coverage scans
        .collect();
    for &key in &keys {
        for s in 0..6u64 {
            let tune_in = s * cycle / 6 + 13 * s;
            for errors in [ErrorModel::NONE, ErrorModel::new(0.15, 0x5EED)] {
                let policy = RetryPolicy::UNBOUNDED;
                let (slow, slow_spans, _) =
                    run_walk(ch, system.query(key), tune_in, errors, policy, false);
                let (fast, fast_spans, steps) =
                    run_walk(ch, system.query(key), tune_in, errors, policy, true);
                assert_eq!(
                    slow,
                    fast,
                    "{} key {key:?} tune_in {tune_in} loss {}",
                    system.scheme_name(),
                    errors.loss_prob
                );
                assert_eq!(
                    slow_spans,
                    fast_spans,
                    "{} spans diverged for key {key:?} tune_in {tune_in}",
                    system.scheme_name()
                );
                // The one-shot driver is the fast-forwarding walk.
                assert_eq!(
                    run_machine_observed(ch, system.query(key), tune_in, errors, policy),
                    (fast, fast_spans),
                    "{} one-shot driver diverged for key {key:?} tune_in {tune_in}",
                    system.scheme_name()
                );
                if collapses_lossless_scan && errors.loss_prob == 0.0 && !slow.found {
                    // The whole not-found scan must collapse to a handful
                    // of wakeups: the initial probe, one fast-forwarded
                    // leap per false-dropping frame/record, and the final
                    // coverage-completing read.
                    assert!(
                        steps < u64::from(slow.probes) / 4 + 8,
                        "{}: {} steps for {} probes",
                        system.scheme_name(),
                        steps,
                        slow.probes
                    );
                }
            }
        }
    }
}

#[test]
fn simple_signature_fast_forward_is_bit_identical() {
    let d = dataset(60);
    let sys = SimpleSignatureScheme::new()
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&sys, 60, true);
}

#[test]
fn integrated_signature_fast_forward_is_bit_identical() {
    let d = dataset(60);
    let sys = IntegratedSignatureScheme::new(8)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&sys, 60, true);
}

#[test]
fn multilevel_signature_fast_forward_is_bit_identical() {
    let d = dataset(60);
    let sys = MultiLevelSignatureScheme::new(8)
        .build(&d, &Params::paper())
        .unwrap();
    check_scheme(&sys, 60, true);
}

#[test]
fn fast_forward_handles_degenerate_frames_and_tiny_signatures() {
    // group_len 1 (every frame is one record) and a 1-byte signature that
    // collides hard: maximal false-drop pressure on the planner's
    // stop-before-match rule.
    let d = dataset(40);
    let sigp = bda_signature::SigParams {
        sig_bytes: 1,
        bits_per_attr: 2,
    };
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
