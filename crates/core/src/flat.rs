//! Flat (plain) broadcast — the paper's baseline access method.
//!
//! Information is broadcast "without using any access method. Mobile
//! clients must traverse all buckets to find the requested data" (§4.2).
//! The expected access time and tuning time are therefore both roughly
//! half the broadcast cycle: flat broadcast has the *best* access time
//! (no index overhead inflates the cycle) and the *worst* tuning time
//! (the client never dozes).

use crate::bucket::{Bucket, BucketMeta};
use crate::channel::Channel;
use crate::coverage::Coverage;
use crate::error::Result;
use crate::key::Key;
use crate::machine::{Action, FastForward, ProtocolMachine, Verdict};
use crate::params::Params;
use crate::record::Dataset;
use crate::scheme::{Scheme, System};
use crate::Ticks;

/// Payload of a flat-broadcast data bucket: one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatPayload {
    /// The record's primary key.
    pub key: Key,
    /// Position of the record in the dataset (diagnostics only — the
    /// protocol uses nothing but `key`).
    pub record_index: u32,
}

/// One trace line's description of the bucket: `data  key=K rec#I`.
impl std::fmt::Display for FlatPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "data  key={} rec#{}", self.key, self.record_index)
    }
}

/// The flat broadcast scheme (called *plain broadcast* in Figs. 5–6).
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatScheme;

/// A built flat-broadcast channel.
#[derive(Debug)]
pub struct FlatSystem {
    channel: Channel<FlatPayload>,
    /// Distinct records behind the cycle. Equal to the bucket count for the
    /// classic one-bucket-per-record layout; smaller for broadcast-disk
    /// repetition layouts (see [`crate::disks`]), where hot records occupy
    /// several buckets per cycle. Coverage-based termination is sized by
    /// records, not buckets.
    num_records: u32,
    /// Whether bucket `i` carries record `i` — the classic
    /// one-record-per-slot cycle, read off the layout when it is built —
    /// so a run of buckets is a run of consecutive records, whose keys
    /// strictly ascend (a [`Dataset`] is key-sorted).
    in_record_order: bool,
}

impl FlatSystem {
    /// Assemble a flat system from an explicit bucket layout — the entry
    /// point of both the classic and the broadcast-disk constructors.
    /// `num_records` is the number of *distinct* records in the cycle;
    /// repetition layouts repeat and skip record indices.
    pub(crate) fn from_channel(channel: Channel<FlatPayload>, num_records: u32) -> Self {
        let buckets = channel.buckets();
        let in_record_order = buckets
            .iter()
            .enumerate()
            .all(|(i, b)| b.payload.record_index as usize == i);
        debug_assert!(
            !in_record_order
                || buckets
                    .windows(2)
                    .all(|w| w[0].payload.key < w[1].payload.key),
            "a record-ordered cycle airs its keys in ascending order"
        );
        FlatSystem {
            channel,
            num_records,
            in_record_order,
        }
    }
}

impl Scheme for FlatScheme {
    type System = FlatSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let size = params.data_bucket_size();
        let buckets = dataset
            .records()
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Bucket::new(
                    size,
                    FlatPayload {
                        key: r.key,
                        record_index: i as u32,
                    },
                )
            })
            .collect();
        Ok(FlatSystem::from_channel(
            Channel::new(buckets)?,
            dataset.len() as u32,
        ))
    }
}

impl System for FlatSystem {
    type Payload = FlatPayload;
    type Machine = FlatMachine;

    fn scheme_name(&self) -> &'static str {
        "flat"
    }

    fn channel(&self) -> &Channel<FlatPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<FlatPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> FlatMachine {
        FlatMachine {
            key,
            coverage: Coverage::new(self.num_records),
            in_record_order: self.in_record_order,
        }
    }
}

/// Client protocol for flat broadcast: listen to every bucket until the
/// requested key appears; after one full cycle of misses, conclude the
/// record is not broadcast.
#[derive(Debug, Clone)]
pub struct FlatMachine {
    key: Key,
    /// Records ruled out so far; absence is concluded at full coverage.
    /// (Cheap countdown semantics on a lossless channel; sound hole
    /// tracking on an error-prone one.)
    coverage: Coverage,
    /// Whether bucket `i` carries record `i` (see [`FlatSystem`]): the
    /// planner then finds the key by binary search and folds a run's
    /// coverage in one range mark.
    in_record_order: bool,
}

impl ProtocolMachine<FlatPayload> for FlatMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.coverage.clear();
        Action::ReadNext
    }

    /// A spent scan's coverage bitmap serves this one's first gap.
    fn reuse(&mut self, spent: &mut Self) {
        self.coverage.reuse(&mut spent.coverage);
    }

    /// A corrupted bucket might have been the target: it simply stays
    /// uncovered, and the scan continues until its next broadcast is read
    /// cleanly. This terminates with probability 1 at any loss rate < 1.
    fn on_corrupt(&mut self, _meta: BucketMeta) -> Action {
        Action::ReadNext
    }

    fn on_bucket(&mut self, payload: &FlatPayload, _meta: BucketMeta) -> Action {
        if payload.key == self.key {
            // Reading the bucket *is* the download: the bucket carries the
            // record.
            return Action::Finish(Verdict::found());
        }
        self.coverage.mark(payload.record_index);
        if self.coverage.is_full() {
            // Every record ruled out: the key is not being broadcast.
            Action::Finish(Verdict::not_found())
        } else {
            Action::ReadNext
        }
    }

    /// Bulk-consume the run of non-matching buckets ahead: each is a plain
    /// read-and-mark with no decision in it. Find the first corrupted
    /// transmission, then the key's bucket before it, then the read that
    /// would complete coverage before that, and commit the reads ahead of
    /// the first of them. A record-ordered run's keys strictly ascend (a
    /// run ends at the cycle's end), so its key is found by binary search;
    /// a repetition layout's run is searched bucket by bucket. The key and
    /// the coverage stop are read slow-path; a corrupted read is recovered
    /// in place and the scan goes on after it, as does a run consumed
    /// whole (it ended at the cycle's end, or at the lossy-air cut).
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, FlatPayload>) {
        loop {
            let run = ctx.run();
            let clean = ctx.clean(run.len(), 1);
            let readable = &run[..clean];
            let hit = if self.in_record_order {
                let at = readable.partition_point(|b| b.payload.key < self.key);
                match readable.get(at) {
                    Some(b) if b.payload.key == self.key => at,
                    _ => clean,
                }
            } else {
                readable
                    .iter()
                    .position(|b| b.payload.key == self.key)
                    .unwrap_or(clean)
            };
            let ahead = &run[..hit];
            let n = match ahead.first() {
                Some(b) if self.in_record_order => self
                    .coverage
                    .mark_prefix(b.payload.record_index, hit as u32)
                    as usize,
                _ => self
                    .coverage
                    .mark_each(ahead.iter().map(|b| b.payload.record_index)),
            };
            ctx.commit(n, 1, &[crate::BucketKind::Data]);
            if n < clean || run.is_empty() || (clean < run.len() && !ctx.retry(self)) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disks::{DiskConfig, FlatDisksScheme};
    use crate::errors_model::{BurstModel, ChannelModel, ErrorModel, OutageSchedule, RetryPolicy};
    use crate::machine::tests::{longest_outage_streak, shown_retries};
    use crate::machine::{AccessOutcome, Walk, WalkStep};
    use crate::record::Record;
    use crate::scheme::DynSystem;
    use bda_obs::{PhaseSpans, SpanRecorder};

    fn system(n: u64) -> FlatSystem {
        let ds = Dataset::new((0..n).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        FlatScheme.build(&ds, &Params::paper()).unwrap()
    }

    #[test]
    fn every_key_is_found_from_every_alignment() {
        let sys = system(16);
        let dt = u64::from(Params::paper().data_bucket_size());
        for k in 0..16u64 {
            for t in [0, dt / 2, dt * 5 + 3, dt * 16 - 1] {
                let out = sys.probe(Key(k * 2), t);
                assert!(out.found, "key {k} from t={t}");
                assert!(!out.aborted);
                assert_eq!(out.tuning, out.access, "flat never dozes");
            }
        }
    }

    #[test]
    fn absent_key_scans_exactly_one_cycle() {
        let sys = system(16);
        let out = sys.probe(Key(1), 0);
        assert!(!out.found);
        assert!(!out.aborted);
        assert_eq!(out.probes, 16);
        assert_eq!(out.access, sys.channel().cycle_len());
    }

    #[test]
    fn average_access_is_about_half_a_cycle() {
        let sys = system(64);
        let cycle = sys.channel().cycle_len();
        let dt = u64::from(Params::paper().data_bucket_size());
        let mut total: u64 = 0;
        let mut count = 0u64;
        for k in 0..64u64 {
            for slot in 0..64u64 {
                let out = sys.probe(Key(k * 2), slot * dt);
                total += out.access;
                count += 1;
            }
        }
        let avg = total / count;
        // Expected ≈ cycle/2 (+ half a bucket of initial wait at aligned
        // tune-ins this grid doesn't produce). Allow 5 % tolerance.
        let expect = cycle / 2;
        let lo = expect - expect / 20;
        let hi = expect + expect / 10;
        assert!(avg >= lo && avg <= hi, "avg={avg} expect≈{expect}");
    }

    /// Outcome, spans and every step of a span-recording walk with
    /// fast-forward `ff` (`false` is the stepped walk every case is
    /// compared against).
    fn walk(
        sys: &FlatSystem,
        key: Key,
        t: Ticks,
        (channel, policy): (ChannelModel, RetryPolicy),
        ff: bool,
    ) -> (AccessOutcome, PhaseSpans, Vec<WalkStep>) {
        let recorder = SpanRecorder::new();
        let mut walk = Walk::with_channel_recorder(
            sys.channel(),
            sys.query(key),
            t,
            channel,
            policy,
            recorder,
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

    #[test]
    fn fast_forward_matches_the_stepped_walk_at_run_boundaries() {
        // A run ends at the cycle's end (tune-ins inside the last bucket),
        // at the key, where coverage completes (absent keys below, between
        // and above the broadcast keys), at a give-up and at the lossy-air
        // cut (rare loss over a 160-bucket cycle); broadcast disks repeat
        // and skip record indices, so their key is searched and their
        // coverage folded bucket by bucket. Corrupted reads are recovered
        // inside the run, up to a retry-count give-up (`bounded(3)` at
        // 30 % loss) or a deadline give-up, under capped and jittered
        // exponential back-off, and through outages several cycles long,
        // read in streaks of two and more. Tune-ins within 24 cycles of
        // `Ticks::MAX` meet a 16-cycle back-off, folded only where it ends
        // at least four cycles short of the clock's end.
        let ds = Dataset::new((1..=160u64).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        let params = Params::paper();
        let bucket = Ticks::from(params.data_bucket_size());
        let classic = FlatScheme.build(&ds, &params).unwrap();
        let cycle = classic.channel().cycle_len();
        let chain = BurstModel::new(0.2, 0.3, 0.0, 0.9, 0xB57);
        let burst =
            ChannelModel::burst(chain).with_outages(OutageSchedule::new(7 * bucket, bucket, 7));
        let iid = |loss| ChannelModel::from(ErrorModel::new(loss, 0x5EED));
        let long_outages = iid(0.05).with_outages(OutageSchedule::new(12 * cycle, 3 * cycle, 0x12));
        let capped = RetryPolicy::bounded(24).with_backoff_cap(8);
        let deadline = RetryPolicy::UNBOUNDED.with_deadline(cycle / 2);
        // (air, policy, whether it runs near `Ticks::MAX` instead).
        let airs = [
            (ChannelModel::NONE, RetryPolicy::UNBOUNDED, false),
            (iid(0.15), RetryPolicy::bounded(8), false),
            (iid(0.01), RetryPolicy::bounded(8), false),
            (burst, capped, false),
            (iid(0.3), RetryPolicy::bounded(3), false),
            (iid(0.3), deadline, false),
            (burst, capped.with_jitter(0x117), false),
            (long_outages, RetryPolicy::UNBOUNDED, false),
            (burst, RetryPolicy::bounded(24).with_backoff(16), true),
        ];
        let disks = FlatDisksScheme::new(DiskConfig::new(3))
            .build(&ds, &params)
            .unwrap();
        // Whether record `i` sits in slot `i` is read off the layout: a
        // one-disk program is the classic cycle.
        let one_disk = FlatDisksScheme::new(DiskConfig::new(1))
            .build(&ds, &params)
            .unwrap();
        assert!(classic.in_record_order && one_disk.in_record_order);
        assert!(!disks.in_record_order);
        let mut collapsed = 0;
        for (channel, policy, near_max) in airs {
            let (mut folded, mut abandoned, mut streak) = (0, 0, 0);
            for sys in [&classic, &disks] {
                let ch = sys.channel();
                let (cycle, last) = (ch.cycle_len(), ch.start_of(ch.num_buckets() - 1));
                let tune_ins: Vec<Ticks> = if near_max {
                    [24, 21, 19, 12, 6]
                        .into_iter()
                        .map(|k| Ticks::MAX - k * cycle + 7)
                        .collect()
                } else {
                    [0, 7, last, last + 1, cycle - 1, 3 * cycle - 1]
                        .into_iter()
                        .chain((1..12).map(|k| k * cycle + cycle / 3))
                        .collect()
                };
                for &t in &tune_ins {
                    for key in [Key(2), Key(38), Key(320), Key(0), Key(39), Key(999)] {
                        let air = (channel, policy);
                        let what =
                            format!("{} buckets, key {key:?} t={t} {air:?}", ch.num_buckets());
                        let (slow, slow_spans, slow_steps) = walk(sys, key, t, air, false);
                        let (fast, fast_spans, fast_steps) = walk(sys, key, t, air, true);
                        assert!(!slow.aborted, "{what}");
                        assert_eq!(slow, fast, "{what}");
                        assert_eq!(slow_spans, fast_spans, "{what}");
                        collapsed += usize::from(fast_steps.len() < slow_steps.len());
                        let size = |i| ch.bucket(i).size;
                        folded += shown_retries(channel, &slow_steps, size)
                            - shown_retries(channel, &fast_steps, size);
                        abandoned += usize::from(slow.abandoned);
                        streak = streak.max(longest_outage_streak(channel, &slow_steps, size));
                    }
                }
            }
            let what = format!("{channel:?} {policy:?}");
            if !channel.is_lossless() {
                assert!(folded > 0, "{what}: a corrupted read must be folded");
            }
            if policy.max_retries == Some(3) || policy.give_up_after.is_some() {
                assert!(abandoned > 0, "{what}: some walk must give up");
            }
            if channel == long_outages {
                assert!(streak >= 2, "{what}: outages must be read in streaks");
            }
        }
        assert!(collapsed > 0, "fast-forward must engage");
    }

    #[test]
    fn found_download_counts_in_tuning() {
        let sys = system(4);
        let dt = u64::from(Params::paper().data_bucket_size());
        // Tune in exactly at the bucket holding key 4 (index 2).
        let out = sys.probe(Key(4), 2 * dt);
        assert!(out.found);
        assert_eq!(out.probes, 1);
        assert_eq!(out.access, dt);
    }
}
