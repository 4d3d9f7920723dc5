//! Per-request span timelines and Perfetto trace assembly.
//!
//! The windowed [`bda_obs::TimeSeries`] answers "what was the engine
//! doing around tick T?" in aggregate; this module answers it for
//! *individual requests*. [`replay_spans`] re-runs one request through a
//! span-instrumented slot, bucket by bucket, and converts the recorded
//! per-phase deltas into an ordered list of [`SpanSegment`]s that tile
//! the walk's access interval `[arrival, arrival + access)` exactly.
//! Replay is legitimate because walks are pure: a request's walk depends
//! only on `(key, arrival, channel, policy)` and the immutable broadcast
//! program — never on what other clients do — so the replayed timeline
//! is byte-identical to what the original in-engine walk did (this
//! module's tests pin segment sums against the walker's outcomes, and the
//! conformance matrix the walker against the engine).
//!
//! [`perfetto_trace`] assembles the full `bda-obs/trace/v1` document:
//! per-shard counter lanes from windowed time series plus span timelines
//! for a deterministically seed-sampled subset of requests (see
//! [`bda_obs::sample_indices`] — sampling is a pure function of
//! `(seed, request index)`, so shard placement can never change which
//! requests are traced). All timestamps are ticks; the document is a
//! deterministic artifact of the simulation.

use bda_core::{AccessOutcome, ChannelModel, DynSystem, Key, RetryPolicy, Ticks, WalkStep};
use bda_obs::{sample_indices, Phase, PhaseSpans, TimeSeries, TraceBuilder};

/// One contiguous run of a walk attributed to a single [`Phase`]:
/// `[start, end)` in absolute ticks, with `end - start == access`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSegment {
    /// The phase this stretch of the walk belongs to.
    pub phase: Phase,
    /// Absolute tick the segment begins (inclusive).
    pub start: Ticks,
    /// Absolute tick the segment ends (exclusive); `start + access`.
    pub end: Ticks,
    /// Access ticks spent in the segment (`end - start`).
    pub access: Ticks,
    /// Tuning ticks spent in the segment (`<= access`; 0 while dozing).
    pub tuning: Ticks,
}

/// Re-run one request through a span-instrumented slow-path walk and
/// return its outcome together with the ordered phase segments tiling
/// `[arrival, arrival + outcome.access)`.
///
/// Adjacent deltas in the same phase coalesce, so a long scan is one
/// segment, not one per bucket. Fast-forward is disabled for the replay —
/// it never changes outcomes or span totals, but stepping bucket by
/// bucket yields the finest segment boundaries the recorder can resolve.
///
/// A retune comes before whatever else its step records: the switch a
/// striped query pays when its walk is built lands at the head of the
/// first step, and an indexed-group retune ahead of the doze it starts.
pub fn replay_spans(
    system: &dyn DynSystem,
    key: Key,
    arrival: Ticks,
    channel: ChannelModel,
    policy: RetryPolicy,
) -> (AccessOutcome, Vec<SpanSegment>) {
    let mut slot = system.make_slot(channel.into(), policy, true);
    slot.set_fast_forward(false);
    slot.start(key, arrival);
    let mut prev = PhaseSpans::new();
    let mut cursor = arrival;
    let mut segments: Vec<SpanSegment> = Vec::new();
    let mut order = Phase::ALL;
    order.sort_by_key(|&p| p != Phase::ChannelSwitch);
    loop {
        let step = slot.step();
        let cur = slot.spans().copied().unwrap_or_default();
        for phase in order {
            let t = cur.get(phase);
            let before = prev.get(phase);
            let access = t.access - before.access;
            let tuning = t.tuning - before.tuning;
            if access == 0 && tuning == 0 {
                continue;
            }
            match segments.last_mut() {
                Some(last) if last.phase == phase && last.end == cursor => {
                    last.end += access;
                    last.access += access;
                    last.tuning += tuning;
                }
                _ => segments.push(SpanSegment {
                    phase,
                    start: cursor,
                    end: cursor + access,
                    access,
                    tuning,
                }),
            }
            cursor += access;
        }
        prev = cur;
        if let WalkStep::Done(outcome) = step {
            debug_assert_eq!(
                cursor,
                arrival + outcome.access,
                "segments must tile the walk exactly"
            );
            return (outcome, segments);
        }
    }
}

/// Assemble one `bda-obs/trace/v1` document for one scheme: per-shard
/// counter lanes from `shard_series` (one windowed [`TimeSeries`] per
/// shard, in shard order) plus replayed span timelines for `sample_k`
/// requests chosen by [`sample_indices`]`(sample_seed, …)`. Each sampled
/// request gets its own thread lane (tids after the shard lanes): an
/// enclosing `request` span over the whole walk, with one nested span
/// per phase segment.
#[allow(clippy::too_many_arguments)]
pub fn perfetto_trace(
    scheme: &str,
    system: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    shard_series: &[&TimeSeries],
    sample_seed: u64,
    sample_k: usize,
) -> String {
    let mut trace = TraceBuilder::new();
    append_scheme_timeline(
        &mut trace,
        1,
        scheme,
        system,
        requests,
        channel,
        policy,
        shard_series,
        sample_seed,
        sample_k,
    );
    trace.finish()
}

/// The composable core of [`perfetto_trace`]: append one scheme's
/// process lane (counter lanes + sampled request timelines) under `pid`.
/// `bda-cli compare --timeline-out` uses this to put every scheme in one
/// document, one process per scheme.
#[allow(clippy::too_many_arguments)]
pub fn append_scheme_timeline(
    trace: &mut TraceBuilder,
    pid: u64,
    scheme: &str,
    system: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    channel: ChannelModel,
    policy: RetryPolicy,
    shard_series: &[&TimeSeries],
    sample_seed: u64,
    sample_k: usize,
) {
    trace.process_name(pid, scheme);
    for (s, series) in shard_series.iter().enumerate() {
        trace.counter_lane(pid, s as u64, &format!("shard {s}"), series);
    }
    let first_request_tid = shard_series.len() as u64;
    let sampled = sample_indices(sample_seed, requests.len() as u64, sample_k);
    for (rank, &index) in sampled.iter().enumerate() {
        let (arrival, key) = requests[index as usize];
        let (outcome, segments) = replay_spans(system, key, arrival, channel, policy);
        let tid = first_request_tid + rank as u64;
        trace.thread_name(pid, tid, &format!("request {index} (key {})", key.0));
        trace.span(
            pid,
            tid,
            "request",
            arrival,
            outcome.access,
            &[
                ("index", index),
                ("key", key.0),
                ("tuning", outcome.tuning),
                ("retries", u64::from(outcome.retries)),
                ("found", u64::from(outcome.found)),
            ],
        );
        for seg in segments {
            trace.span(
                pid,
                tid,
                seg.phase.name(),
                seg.start,
                seg.access,
                &[("tuning", seg.tuning)],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{
        Dataset, ErrorModel, FlatScheme, GroupConfig, IndexedGroupScheme, Params, Record, Scheme,
        StripedScheme,
    };
    use bda_obs::validate_trace;

    fn system() -> impl DynSystem {
        let ds = Dataset::new((0..32).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        FlatScheme.build(&ds, &Params::paper()).unwrap()
    }

    #[test]
    fn segments_tile_the_walk_and_telescope_to_the_outcome() {
        let sys = system();
        for (t, k) in [(0u64, 0u64), (777, 30), (12_345, 62)] {
            let (outcome, segments) =
                replay_spans(&sys, Key(k), t, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
            assert_eq!(outcome, sys.probe(Key(k), t), "replay must not perturb");
            let access: u64 = segments.iter().map(|s| s.access).sum();
            let tuning: u64 = segments.iter().map(|s| s.tuning).sum();
            assert_eq!(access, outcome.access);
            assert_eq!(tuning, outcome.tuning);
            // Contiguous tiling from arrival to completion.
            let mut cursor = t;
            for seg in &segments {
                assert_eq!(seg.start, cursor, "gap before {seg:?}");
                assert_eq!(seg.end - seg.start, seg.access);
                assert!(seg.tuning <= seg.access);
                cursor = seg.end;
            }
            assert_eq!(cursor, t + outcome.access);
        }
    }

    #[test]
    fn lossy_replay_matches_the_direct_walker() {
        let sys = system();
        let channel = ChannelModel::from(ErrorModel::new(0.2, 0xFA11));
        let policy = RetryPolicy::bounded(2);
        for i in 0..20u64 {
            let (t, k) = (i * 613, Key((i % 32) * 2));
            let (outcome, segments) = replay_spans(&sys, k, t, channel, policy);
            assert_eq!(outcome, sys.probe_with_channel(k, t, channel, policy));
            let access: u64 = segments.iter().map(|s| s.access).sum();
            assert_eq!(access, outcome.access);
        }
    }

    #[test]
    fn retunes_come_before_what_follows_them() {
        let ds = Dataset::new((0..400).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let p = Params::paper();
        let (sw, arrival, key) = (1_500, 1_234, Key(600));
        let group = GroupConfig::new(4, sw).unwrap();
        let (air, policy) = (ChannelModel::NONE, RetryPolicy::UNBOUNDED);

        // A striped query routed off the home channel retunes before it
        // hears anything, so its timeline opens with the switch.
        let striped = StripedScheme::new(FlatScheme, group)
            .build(&ds, &p)
            .unwrap();
        assert_ne!(striped.route(key), 0);
        let (out, segments) = replay_spans(&striped, key, arrival, air, policy);
        assert!(out.found);
        let switch = SpanSegment {
            phase: Phase::ChannelSwitch,
            start: arrival,
            end: arrival + sw,
            access: sw,
            tuning: 0,
        };
        assert_eq!(segments[0], switch, "{segments:?}");

        // An indexed-group query retunes as soon as its directory read
        // ends, then dozes to the record on the data channel: the walk's
        // last steps are that read, the retune-and-doze, the record read.
        let indexed = IndexedGroupScheme::new(group)
            .unwrap()
            .build(&ds, &p)
            .unwrap();
        let mut slot = indexed.make_slot_channel(air, policy);
        slot.start(key, arrival);
        let mut steps = Vec::new();
        while !matches!(steps.last(), Some(WalkStep::Done(_))) {
            steps.push(slot.step());
        }
        let WalkStep::Read { until: dir_end, .. } = steps[steps.len() - 4] else {
            panic!("the directory read precedes the retune: {steps:?}");
        };
        let (out, segments) = replay_spans(&indexed, key, arrival, air, policy);
        assert!(out.found);
        let i = segments
            .iter()
            .position(|s| s.phase == Phase::ChannelSwitch)
            .expect("a found key retunes");
        assert_eq!(segments[i - 1].phase, Phase::IndexTraversal, "{segments:?}");
        assert_eq!(segments[i - 1].end, dir_end);
        let switch = SpanSegment {
            phase: Phase::ChannelSwitch,
            start: dir_end,
            end: dir_end + sw,
            access: sw,
            tuning: 0,
        };
        assert_eq!(segments[i], switch, "{segments:?}");
        assert_eq!(segments[i + 1].phase, Phase::Doze);
    }

    #[test]
    fn perfetto_document_validates_and_is_deterministic() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..50u64).map(|i| (i * 137, Key((i % 32) * 2))).collect();
        let mut engine = crate::engine::Engine::new(&sys);
        engine.enable_metrics_windowed(bda_obs::WindowSpec::new(64));
        engine.run_batch(&requests);
        let hub = engine.take_metrics().expect("metrics were enabled");
        let series = hub.windows.expect("windowed run carries a series");
        let build = || {
            perfetto_trace(
                "flat",
                &sys,
                &requests,
                ChannelModel::NONE,
                RetryPolicy::UNBOUNDED,
                &[&series],
                0xBEEF,
                4,
            )
        };
        let doc = build();
        assert!(validate_trace(&doc).unwrap() > 0);
        assert_eq!(doc, build(), "trace must be byte-identical across runs");
    }
}
