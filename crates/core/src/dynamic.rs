//! Dynamic broadcast programs: versioned epochs and the walk source that
//! reads them.
//!
//! The paper freezes the broadcast program: every cycle repeats the same
//! buckets forever, so a client chasing a pointer can never be misled. A
//! *dynamic* server mutates the database between cycles and rebuilds the
//! program, which breaks that guarantee — a pointer read from version `v`
//! may land in a bucket laid out by version `v + 1` whose offsets mean
//! something entirely different.
//!
//! This module models the client side of that world:
//!
//! * A [`ProgramTimeline`] is the air history: a sequence of [`Epoch`]s,
//!   each broadcasting one immutable program (a built [`System`]) for a
//!   whole number of its cycles. Version stamps are carried in every
//!   bucket header ([`crate::Bucket::version`]).
//! * [`Versioned`] is the timeline as the [`Source`] of the one
//!   [`Walk`]: the walk reads it with the same step, probe budget,
//!   recovery and finish rules as a frozen channel. Before a bucket's
//!   payload reaches the machine, the source compares the header version
//!   against the walk's **anchor version** (the program the machine's
//!   pointers were derived from). On mismatch the walk counts the skew,
//!   rebuilds the machine against the live program and restarts the
//!   protocol at the skewed bucket.
//!
//! The discipline that makes verdicts sound: **a machine only ever sees
//! payloads whose version equals its own build version.** Every verdict is
//! therefore computed entirely within one program version, so "found"
//! means the record was broadcast by some program on the air during the
//! walk, and "not found" means some single program provably lacked it —
//! never a phantom read of a half-old, half-new cycle.
//!
//! With a single epoch ([`ProgramTimeline::frozen`]) the walk over the
//! timeline makes the same decisions as the walk over the program's
//! channel and produces bit-identical [`AccessOutcome`]s: one walk over
//! two sources, which the differential suites in `bda-sim` pin down.
//!
//! [`Walk`]: crate::machine::Walk
//! [`AccessOutcome`]: crate::machine::AccessOutcome

use crate::error::{BdaError, Result};
use crate::key::Key;
use crate::machine::{Landing, Source};
use crate::scheme::{Broadcast, System};
use crate::Ticks;

/// One stretch of air time during which a single broadcast program repeats.
#[derive(Debug)]
pub struct Epoch<S: System> {
    /// The immutable program on the air during this epoch. Its channel
    /// (and every bucket header) is stamped with the epoch's version.
    pub system: S,
    /// Absolute time the epoch begins. The first cycle of the program
    /// starts exactly here.
    pub start: Ticks,
}

impl<S: System> Epoch<S> {
    /// The program version this epoch broadcasts.
    pub fn version(&self) -> u64 {
        self.system.channel().version()
    }
}

/// The broadcast history of a dynamic server: consecutive [`Epoch`]s, each
/// spanning a whole number of its own program's cycles. The last epoch
/// extends forever (the server stopped updating, or the simulation horizon
/// ended).
#[derive(Debug)]
pub struct ProgramTimeline<S: System> {
    epochs: Vec<Epoch<S>>,
    /// Buckets in the timeline's largest program (sizes every walk's probe
    /// budget; worked out once, at construction).
    max_buckets: usize,
}

impl<S: System> ProgramTimeline<S> {
    /// Assemble a timeline. Fails unless the epochs are non-empty, start at
    /// time 0, strictly increase, and each finite epoch spans a whole
    /// number of its own cycles — the alignment that guarantees every
    /// epoch boundary is also a cycle boundary of the outgoing program, so
    /// no bucket straddles two programs.
    pub fn new(epochs: Vec<Epoch<S>>) -> Result<Self> {
        if epochs.is_empty() {
            return Err(BdaError::BuildError("timeline has no epochs".into()));
        }
        if epochs[0].start != 0 {
            return Err(BdaError::BuildError(format!(
                "first epoch starts at {} instead of 0",
                epochs[0].start
            )));
        }
        for i in 0..epochs.len() - 1 {
            let span = epochs[i + 1].start.saturating_sub(epochs[i].start);
            let cycle = epochs[i].system.channel().cycle_len();
            if span == 0 {
                return Err(BdaError::BuildError(format!(
                    "epoch {} is empty (start {} repeated)",
                    i + 1,
                    epochs[i + 1].start
                )));
            }
            if span % cycle != 0 {
                return Err(BdaError::BuildError(format!(
                    "epoch {i} spans {span} bytes, not a multiple of its cycle length {cycle}"
                )));
            }
        }
        let max_buckets = epochs
            .iter()
            .map(|e| e.system.channel().num_buckets())
            .max()
            .unwrap_or(1);
        Ok(ProgramTimeline {
            epochs,
            max_buckets,
        })
    }

    /// A single-epoch timeline: the frozen-program special case.
    pub fn frozen(system: S) -> Self {
        ProgramTimeline {
            max_buckets: system.channel().num_buckets(),
            epochs: vec![Epoch { system, start: 0 }],
        }
    }

    /// All epochs in air order.
    pub fn epochs(&self) -> &[Epoch<S>] {
        &self.epochs
    }

    /// Epoch `i`.
    pub fn epoch(&self, i: usize) -> &Epoch<S> {
        &self.epochs[i]
    }

    /// Index of the epoch on the air at absolute time `t` (the last epoch
    /// with `start <= t`).
    pub fn index_at(&self, t: Ticks) -> usize {
        self.epochs.partition_point(|e| e.start <= t) - 1
    }

    /// [`ProgramTimeline::index_at`], stepping forward from epoch `from`:
    /// one comparison per epoch boundary passed. A walk's clock crosses
    /// each boundary once, so the epoch of its last landing finds the
    /// epoch of its next read in O(1) amortized. A `from` that begins
    /// after `t` is ignored, and the timeline searched.
    fn index_from(&self, from: usize, t: Ticks) -> usize {
        if from >= self.epochs.len() || self.epochs[from].start > t {
            return self.index_at(t);
        }
        let mut ei = from;
        while self.epochs.get(ei + 1).is_some_and(|e| e.start <= t) {
            ei += 1;
        }
        ei
    }

    /// The first complete bucket a client tuning in (or resuming) at `t`
    /// can read: `(epoch index, bucket index, absolute start time)`.
    ///
    /// Within an epoch this is the epoch-local
    /// [`crate::Channel::first_complete_at`]; when the wait would cross
    /// into the next epoch the answer is that epoch's first bucket. Epoch
    /// spans are whole cycles, so a wrap past the last bucket lands exactly
    /// on the epoch boundary — never inside a phantom cycle of the old
    /// program.
    pub fn first_complete_at(&self, t: Ticks) -> (usize, usize, Ticks) {
        self.landing(self.index_at(t), t)
    }

    /// [`ProgramTimeline::first_complete_at`] for an instant `t` of epoch
    /// `ei`.
    fn landing(&self, ei: usize, t: Ticks) -> (usize, usize, Ticks) {
        let e = &self.epochs[ei];
        let local = t - e.start;
        let (idx, start_local) = e.system.channel().first_complete_at(local);
        let start = e.start.saturating_add(start_local);
        if let Some(next) = self.epochs.get(ei + 1) {
            if start >= next.start {
                return (ei + 1, 0, next.start);
            }
        }
        (ei, idx, start)
    }
}

/// The [`Source`] of a [`Walk`] over a [`ProgramTimeline`]: it carries
/// what a respawn needs — the timeline and the query's key — and the
/// version of the program the walk's machine was built against (its
/// anchor).
///
/// Per read it finds the epoch on air, stepping on from the epoch of its
/// last landing instead of searching the timeline, lets fast-forward run
/// only through that epoch and only when it carries the anchor's program,
/// and on a clean bucket of another version hands the walk a machine
/// built against the program on air, re-anchoring there. Obtained with
/// [`Broadcast::tune`].
///
/// [`Walk`]: crate::machine::Walk
#[derive(Debug)]
pub struct Versioned<'a, S: System> {
    timeline: &'a ProgramTimeline<S>,
    key: Key,
    anchor: u64,
    /// The epoch of the walk's last landing (before the first, the epoch
    /// on air at tune-in): where the next lookup starts.
    epoch: usize,
}

impl<'a, S: System> Source<'a, S::Machine> for Versioned<'a, S> {
    type Payload = S::Payload;

    fn max_buckets(&self) -> usize {
        // The largest program on the timeline: with one epoch the budget
        // is the frozen walk's, so zero-update runs abort at exactly the
        // same point.
        self.timeline.max_buckets
    }

    fn first_complete_at(&mut self, t: Ticks) -> Landing<'a, S::Payload> {
        let on_air = self.timeline.index_from(self.epoch, t);
        let (epoch, idx, start) = self.timeline.landing(on_air, t);
        self.epoch = epoch;
        Landing {
            ch: self.timeline.epoch(epoch).system.channel(),
            epoch,
            idx,
            start,
        }
    }

    fn ff_limit(&self, at: &Landing<'a, S::Payload>) -> Option<Ticks> {
        (at.ch.version() == self.anchor).then(|| {
            self.timeline
                .epochs
                .get(at.epoch + 1)
                .map_or(Ticks::MAX, |e| e.start)
        })
    }

    fn respawn(&mut self, at: &Landing<'a, S::Payload>, version: u64) -> Option<S::Machine> {
        if version == self.anchor {
            return None;
        }
        self.anchor = version;
        let epoch = self.timeline.epoch(at.epoch);
        Some(epoch.system.query_from(self.key, epoch.start))
    }
}

/// A timeline is a broadcast whose walks re-anchor on version skew; with
/// one epoch (a frozen program) they make the frozen walk's decisions and
/// produce bit-identical outcomes.
impl<S: System> Broadcast for ProgramTimeline<S> {
    type Payload = <S as System>::Payload;
    type Machine = <S as System>::Machine;
    type Source<'a>
        = Versioned<'a, S>
    where
        S: 'a;

    /// The program on the air at time 0 names the broadcast and sets its
    /// reported geometry.
    fn scheme_name(&self) -> &'static str {
        System::scheme_name(&self.epochs[0].system)
    }

    fn cycle_len(&self) -> Ticks {
        self.epochs[0].system.channel().cycle_len()
    }

    fn num_buckets(&self) -> usize {
        self.epochs[0].system.channel().num_buckets()
    }

    fn tune(&self, key: Key, tune_in: Ticks) -> (Versioned<'_, S>, S::Machine) {
        let ei = self.index_at(tune_in);
        let epoch = self.epoch(ei);
        let src = Versioned {
            timeline: self,
            key,
            anchor: epoch.version(),
            epoch: ei,
        };
        (src, epoch.system.query_from(key, epoch.start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::BucketMeta;
    use crate::channel::Channel;
    use crate::errors_model::{BurstModel, ChannelModel, ErrorModel, OutageSchedule, RetryPolicy};
    use crate::flat::{FlatMachine, FlatPayload, FlatScheme, FlatSystem};
    use crate::machine::tests::{longest_outage_streak, shown_retries};
    use crate::machine::{
        run_machine, run_machine_observed_channel, AccessOutcome, Action, ProtocolMachine, Walk,
        WalkStep,
    };
    use crate::params::Params;
    use crate::record::{Dataset, Record};
    use crate::scheme::{DynSystem, Scheme};
    use bda_obs::{Phase, PhaseSpans, SpanRecorder};

    fn dataset(keys: &[u64]) -> Dataset {
        Dataset::new(keys.iter().map(|&k| Record::keyed(k)).collect()).unwrap()
    }

    /// Two flat epochs: keys {0,10,20,30} for two cycles, then {0,10,30,40}
    /// (20 deleted, 40 inserted) forever.
    fn two_epoch_timeline() -> ProgramTimeline<FlatSystem> {
        two_epoch_timeline_of(|sys| sys)
    }

    /// [`two_epoch_timeline`] with each program wrapped by `wrap`.
    fn two_epoch_timeline_of<S: System>(wrap: impl Fn(FlatSystem) -> S) -> ProgramTimeline<S> {
        timeline_of(&[0, 10, 20, 30], &[0, 10, 30, 40], wrap)
    }

    /// Two flat epochs of 40 records, long enough for runs of many
    /// buckets: keys 0, 10, …, 390 for two cycles, then every fifth key
    /// from 20 on (20, 70, …) deleted and 400, 410 and 430 inserted.
    fn wide_timeline() -> ProgramTimeline<FlatSystem> {
        let old: Vec<u64> = (0..40).map(|i| i * 10).collect();
        let new: Vec<u64> = (0..44).filter(|i| i % 5 != 2).map(|i| i * 10).collect();
        timeline_of(&old, &new, |sys| sys)
    }

    /// Flat epochs over `old` keys for two cycles, then `new` keys.
    fn timeline_of<S: System>(
        old: &[u64],
        new: &[u64],
        wrap: impl Fn(FlatSystem) -> S,
    ) -> ProgramTimeline<S> {
        let params = Params::paper();
        let sys0 = FlatScheme.build(&dataset(old), &params).unwrap();
        let boundary = 2 * sys0.channel().cycle_len();
        let sys1 = FlatScheme.rebuild(&dataset(new), &params, 1).unwrap();
        ProgramTimeline::new(vec![
            Epoch {
                system: wrap(sys0),
                start: 0,
            },
            Epoch {
                system: wrap(sys1),
                start: boundary,
            },
        ])
        .unwrap()
    }

    #[test]
    fn timeline_validation_rejects_misaligned_epochs() {
        let params = Params::paper();
        let sys0 = FlatScheme.build(&dataset(&[0, 10]), &params).unwrap();
        let sys1 = FlatScheme.rebuild(&dataset(&[0, 10]), &params, 1).unwrap();
        let err = ProgramTimeline::new(vec![
            Epoch {
                system: sys0,
                start: 0,
            },
            Epoch {
                system: sys1,
                start: 7,
            },
        ])
        .unwrap_err();
        assert!(matches!(err, BdaError::BuildError(_)));
        assert!(ProgramTimeline::<crate::flat::FlatSystem>::new(vec![]).is_err());
    }

    #[test]
    fn index_and_first_complete_cross_epochs() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        assert_eq!(tl.index_at(0), 0);
        assert_eq!(tl.index_at(boundary - 1), 0);
        assert_eq!(tl.index_at(boundary), 1);
        // Tuning in mid-way through the old program's last bucket wraps to
        // the new program's first bucket, never a phantom old cycle.
        let (ei, idx, start) = tl.first_complete_at(boundary - 1);
        assert_eq!((ei, idx, start), (1, 0, boundary));
    }

    /// The epoch lookup a walk's source makes, stepping on from its last
    /// landing, equals the timeline's search just before, at and just
    /// after every epoch start and well past the last, from every
    /// starting epoch (one that begins later is ignored), and for a
    /// source that asks at instants that never decrease, as a walk does,
    /// twice at each.
    #[test]
    fn hinted_epoch_lookup_matches_the_search() {
        let params = Params::paper();
        let keys: [&[u64]; 4] = [
            &[0, 10, 20],
            &[0, 10, 20, 30],
            &[10, 30],
            &[0, 10, 20, 30, 40],
        ];
        let mut epochs = Vec::new();
        let mut start = 0;
        for (v, (keys, cycles)) in keys.iter().zip([2, 1, 3, 1]).enumerate() {
            let system = FlatScheme
                .rebuild(&dataset(keys), &params, v as u64)
                .unwrap();
            let next = start + cycles * system.channel().cycle_len();
            epochs.push(Epoch { system, start });
            start = next;
        }
        let tl = ProgramTimeline::new(epochs).unwrap();
        let mut probes: Vec<Ticks> = vec![0, 1, start * 3 + 1];
        for e in &tl.epochs()[1..] {
            probes.extend([e.start - 1, e.start, e.start + 1]);
        }
        probes.sort_unstable();
        for &t in &probes {
            for from in 0..tl.epochs().len() {
                assert_eq!(tl.index_from(from, t), tl.index_at(t), "from {from} at {t}");
            }
        }
        for (i, &tune_in) in probes.iter().enumerate() {
            let (mut src, _) = tl.tune(Key(10), tune_in);
            for &t in &probes[i..] {
                for _ in 0..2 {
                    let at = src.first_complete_at(t);
                    assert_eq!(
                        (at.epoch, at.idx, at.start),
                        tl.first_complete_at(t),
                        "tuned in at {tune_in}, asked at {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_epoch_walk_is_bit_identical_to_frozen_walk() {
        let params = Params::paper();
        let keys = [0u64, 10, 20, 30, 40, 50, 60, 70];
        let sys = FlatScheme.build(&dataset(&keys), &params).unwrap();
        let tl = ProgramTimeline::frozen(FlatScheme.build(&dataset(&keys), &params).unwrap());
        for key in [Key(0), Key(30), Key(35), Key(70)] {
            for t in [0u64, 17, 1000, 5555] {
                // The one walk over the program's channel and over the
                // one-epoch timeline, through the lossless driver and the
                // observed one on lossy air.
                let frozen = run_machine(sys.channel(), sys.query(key), t);
                let (src, machine) = tl.tune(key, t);
                let dynamic = run_machine(src, machine, t);
                assert_eq!(frozen, dynamic, "key {key:?} t {t}");
                assert_eq!(dynamic.version_skews, 0);
                assert_eq!(dynamic.stale_restarts, 0);
                let air = ChannelModel::from(ErrorModel::new(0.2, 0x5EED));
                let policy = RetryPolicy::bounded(4);
                let frozen =
                    run_machine_observed_channel(sys.channel(), sys.query(key), t, air, policy);
                let (src, machine) = tl.tune(key, t);
                let dynamic = run_machine_observed_channel(src, machine, t, air, policy);
                assert_eq!(frozen, dynamic, "key {key:?} t {t} {air:?}");
            }
        }
    }

    #[test]
    fn walk_across_boundary_restarts_and_stays_truthful() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        let bucket = u64::from(Params::paper().data_bucket_size());
        // Tune in one bucket before the boundary, searching key 40 (only
        // exists after the update). The scan crosses into epoch 1, detects
        // the skew, respawns, and finds the key in the new program.
        let out = tl.probe(Key(40), boundary - bucket);
        assert!(out.found, "key inserted by the update must be found");
        assert!(!out.aborted);
        assert_eq!(out.stale_restarts, 1);
        assert!(out.version_skews >= 1);

        // Key 20 is deleted by the update. A client starting just before
        // the boundary either never sees it (respawns into epoch 1 and
        // scans a full new cycle) — truthful not-found — or the walk
        // aborts never; a stale payload is never returned.
        let out = tl.probe(Key(20), boundary - bucket);
        assert!(!out.aborted);
        assert!(!out.found, "deleted key must not resolve to a stale record");
        assert!(out.version_skews >= 1);
    }

    /// A broadcast-disk router respawned on a skewed bucket re-seeks its
    /// chunk from that bucket's start. When the bucket is an entry of the
    /// chunk's minor cycle, the fresh machine asks for the bucket it was
    /// respawned on, and reads it instead of dozing into the past.
    #[test]
    fn respawn_onto_a_minor_cycle_entry_reads_the_skewed_bucket() {
        let params = Params::paper();
        let scheme = crate::disks::DiskScheme::new(FlatScheme, crate::disks::DiskConfig::new(2));
        let old: Vec<u64> = (0..16).map(|i| i * 10).collect();
        let new: Vec<u64> = (0..17).map(|i| i * 10).collect();
        let sys0 = scheme.build(&dataset(&old), &params).unwrap();
        let boundary = 2 * sys0.channel().cycle_len();
        let buckets = sys0.channel().num_buckets() as u64;
        let sys1 = scheme.rebuild(&dataset(&new), &params, 1).unwrap();
        let tl = ProgramTimeline::new(vec![
            Epoch {
                system: sys0,
                start: 0,
            },
            Epoch {
                system: sys1,
                start: boundary,
            },
        ])
        .unwrap();
        let bucket = u64::from(params.data_bucket_size());
        let mut restarts = 0;
        for &k in &old {
            for b in 1..=buckets {
                let out = tl.probe(Key(k), boundary - b * bucket);
                assert!(!out.aborted, "key {k} tuned in {b} buckets early: {out:?}");
                assert!(out.found, "key {k} stays on the air: {out:?}");
                restarts += out.stale_restarts;
            }
        }
        assert!(restarts > 0, "some walks must cross the boundary");
    }

    #[test]
    fn walk_entirely_within_an_epoch_sees_no_skew() {
        let tl = two_epoch_timeline();
        let out = tl.probe(Key(20), 0);
        // Key 20 exists throughout epoch 0 and the scan completes within
        // the first cycle: found, no skew.
        assert!(out.found);
        assert_eq!(out.version_skews, 0);
        assert_eq!(out.stale_restarts, 0);

        let boundary = tl.epoch(1).start;
        let out = tl.probe(Key(40), boundary);
        assert!(out.found);
        assert_eq!(out.version_skews, 0);
    }

    #[test]
    fn skewed_reads_are_attributed_to_stale_recovery() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        let bucket = u64::from(Params::paper().data_bucket_size());
        let (out, spans) = tl.probe_recorded_channel(
            Key(40),
            boundary - bucket,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        assert!(out.found);
        assert!(out.version_skews >= 1);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        assert_eq!(
            spans.get(Phase::StaleRecovery).count,
            u64::from(out.version_skews),
            "every skewed read is a StaleRecovery span"
        );

        // A skew-free walk records no StaleRecovery spans, and the observed
        // walk's outcome matches the plain one bit-for-bit.
        let (clean, clean_spans) =
            tl.probe_recorded_channel(Key(20), 0, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        assert_eq!(clean, tl.probe(Key(20), 0));
        assert_eq!(clean_spans.get(Phase::StaleRecovery).count, 0);
        assert_eq!(clean_spans.total_access(), clean.access);
    }

    #[test]
    fn versioned_slot_agrees_with_one_shot_run() {
        let tl = two_epoch_timeline();
        let boundary = tl.epoch(1).start;
        let mut slot = tl.make_slot_channel(ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        for key in [Key(0), Key(20), Key(40), Key(55)] {
            for t in [0u64, boundary - 7, boundary + 3] {
                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, tl.probe(key, t));
            }
        }
    }

    /// Flat broadcast behind a machine with no planner: its
    /// `fast_forward` is the default, which consumes nothing.
    struct Unplanned(FlatSystem);

    struct UnplannedMachine(FlatMachine);

    impl ProtocolMachine<FlatPayload> for UnplannedMachine {
        fn start(&mut self, tune_in: Ticks) -> Action {
            self.0.start(tune_in)
        }
        fn on_bucket(&mut self, payload: &FlatPayload, meta: BucketMeta) -> Action {
            self.0.on_bucket(payload, meta)
        }
        fn on_corrupt(&mut self, meta: BucketMeta) -> Action {
            self.0.on_corrupt(meta)
        }
    }

    impl System for Unplanned {
        type Payload = FlatPayload;
        type Machine = UnplannedMachine;
        fn scheme_name(&self) -> &'static str {
            "unplanned-flat"
        }
        fn channel(&self) -> &Channel<FlatPayload> {
            self.0.channel()
        }
        fn channel_mut(&mut self) -> &mut Channel<FlatPayload> {
            self.0.channel_mut()
        }
        fn query(&self, key: Key) -> UnplannedMachine {
            UnplannedMachine(self.0.query(key))
        }
    }

    type Air = (ChannelModel, RetryPolicy);

    /// Step a span-recording walk to completion with fast-forward `ff`
    /// (`false` is the bucket-by-bucket side of every differential test
    /// below), returning its outcome, spans and every step through `Done`.
    fn run_walk<S: System>(
        tl: &ProgramTimeline<S>,
        key: Key,
        tune_in: Ticks,
        (channel, policy): Air,
        ff: bool,
    ) -> (AccessOutcome, PhaseSpans, Vec<WalkStep>) {
        let (src, machine) = tl.tune(key, tune_in);
        let mut walk = Walk::with_channel_recorder(
            src,
            machine,
            tune_in,
            channel,
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

    /// Every air the walker-level tests run, each with its tune-ins.
    /// Around the epoch boundary — the start, middle and last tick of each
    /// of the last three buckets before it, on it, and just after — over
    /// lossless air, i.i.d. loss with a retry budget, and a Gilbert–Elliott
    /// chain with outage windows and jittered exponential back-off. Within
    /// four cycles of `Ticks::MAX` on the last epoch (where fast-forward
    /// disengages), plus two tune-ins that start engaged and cross into
    /// that zone, on every air: an outage back-off there dozes the walk to
    /// within a bucket of `Ticks::MAX`, where reads end saturated.
    ///
    /// Then the stops of a planner that recovers corrupted reads inside its
    /// run: a retry-count give-up (`bounded(3)` at 30 % loss) and a
    /// deadline give-up; outages several cycles long, read in streaks of
    /// two and more; a one-cycle back-off that lands exactly on the
    /// boundary — the loss seed corrupts the last bucket of the cycle
    /// before — or past it, from tune-ins a cycle earlier; and a 16-cycle
    /// back-off from tune-ins up to 24 cycles short of `Ticks::MAX`.
    fn cases<S: System>(tl: &ProgramTimeline<S>) -> Vec<(Air, Vec<Ticks>)> {
        let bucket = Ticks::from(Params::paper().data_bucket_size());
        let boundary = tl.epoch(1).start;
        let mut near_boundary = vec![0, 17, boundary, boundary + 1];
        for k in 1..=3 {
            for offset in [0, bucket / 2, bucket - 1] {
                near_boundary.push(boundary - k * bucket + offset);
            }
        }
        let last = tl.epochs().last().unwrap();
        let cycle = last.system.channel().cycle_len();
        let late = last.start + ((Ticks::MAX - last.start) / cycle - 3) * cycle;
        assert!(Ticks::MAX - late < 4 * cycle);
        let near_max = [
            late + 1,
            late + cycle / 2,
            late - cycle + 5,
            late - 2 * cycle + 5,
        ];
        let standard: Vec<Ticks> = near_boundary.iter().chain(&near_max).copied().collect();
        let chain = BurstModel::new(0.2, 0.3, 0.0, 0.9, 0xB57);
        let burst =
            ChannelModel::burst(chain).with_outages(OutageSchedule::new(7 * bucket, bucket, 0x0A7));
        let iid = ChannelModel::from(ErrorModel::new(0.3, 0x7A1C));
        // Outages three cycles long, one per twelve cycles of the last
        // epoch, met by tune-ins one cycle apart.
        let long_outages = ChannelModel::from(ErrorModel::new(0.05, 0x5EED))
            .with_outages(OutageSchedule::new(12 * cycle, 3 * cycle, 0x12));
        let spread = (0..12).map(|k| last.start + k * cycle + 5).collect();
        let first_cycle = tl.epoch(0).system.channel().cycle_len();
        let before = boundary - first_cycle - bucket;
        let onto_boundary = (1..)
            .map(|seed| ErrorModel::new(0.3, seed))
            .find(|loss| loss.corrupted(before))
            .unwrap();
        let a_cycle_early = near_boundary
            .iter()
            .filter(|&&t| t >= first_cycle)
            .map(|&t| t - first_cycle)
            .collect();
        let far_from_max = (6..=12).map(|k| late - 2 * k * cycle + 5);
        let jittered = RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x117);
        let deadline = RetryPolicy::UNBOUNDED.with_deadline(6 * bucket);
        vec![
            (
                (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
                standard.clone(),
            ),
            ((iid, RetryPolicy::bounded(4)), standard.clone()),
            ((burst, jittered), standard.clone()),
            ((iid, RetryPolicy::bounded(3)), standard.clone()),
            ((iid, deadline), standard),
            ((long_outages, RetryPolicy::UNBOUNDED), spread),
            (
                (onto_boundary.into(), RetryPolicy::UNBOUNDED.with_backoff(1)),
                a_cycle_early,
            ),
            (
                (burst, RetryPolicy::bounded(24).with_backoff(16)),
                near_max.into_iter().chain(far_from_max).collect(),
            ),
        ]
    }

    const KEYS: [Key; 6] = [Key(0), Key(10), Key(20), Key(30), Key(40), Key(55)];

    /// Back-off dozes in a step trace that start before `boundary` and end
    /// on it (`true`) or past it (`false`).
    fn backoffs_across(boundary: Ticks, steps: &[WalkStep]) -> impl Iterator<Item = bool> + '_ {
        steps.windows(2).filter_map(move |w| match *w {
            [WalkStep::Read { until: read, .. }, WalkStep::Doze { until: wake }]
                if read < boundary && wake >= boundary =>
            {
                Some(wake == boundary)
            }
            _ => None,
        })
    }

    #[test]
    fn fast_forward_stops_at_the_epoch_boundary() {
        // A fast-forwarding walk equals the bucket-by-bucket walk in
        // outcome and spans — version skews and stale restarts included —
        // however close to the boundary or to `Ticks::MAX` it tunes in,
        // on any air. On the wide timeline a run stops short of the
        // boundary at the key, at a give-up or where coverage completes,
        // or reaches it at the cycle's end or with a back-off. Every lossy
        // air recovers some corrupted read inside a run.
        let (mut skews, mut collapsed) = (0, 0);
        let bucket = Params::paper().data_bucket_size();
        let mut folded_across = [0, 0];
        for tl in [two_epoch_timeline(), wide_timeline()] {
            let boundary = tl.epoch(1).start;
            for ((channel, policy), tune_ins) in cases(&tl) {
                let (mut folded, mut abandoned, mut streak) = (0, 0, 0);
                for &t in &tune_ins {
                    for key in KEYS {
                        let air = (channel, policy);
                        let what = format!("key {key:?} t={t} {air:?}");
                        let (slow, slow_spans, slow_steps) = run_walk(&tl, key, t, air, false);
                        let (fast, fast_spans, fast_steps) = run_walk(&tl, key, t, air, true);
                        assert!(!slow.aborted, "{what}");
                        assert_eq!(slow, fast, "{what}");
                        assert_eq!(slow_spans, fast_spans, "{what}");
                        assert_eq!(
                            fast_spans.get(Phase::StaleRecovery).count,
                            u64::from(fast.version_skews)
                        );
                        // The one-shot driver is the fast-forwarding walk.
                        assert_eq!(
                            tl.probe_recorded_channel(key, t, channel, policy),
                            (fast, fast_spans)
                        );
                        skews += fast.version_skews;
                        collapsed += usize::from(fast_steps.len() < slow_steps.len());
                        let size = |_| bucket;
                        folded += shown_retries(channel, &slow_steps, size)
                            - shown_retries(channel, &fast_steps, size);
                        abandoned += usize::from(slow.abandoned);
                        streak = streak.max(longest_outage_streak(channel, &slow_steps, size));
                        for (on, across) in folded_across.iter_mut().enumerate() {
                            let count = |steps| {
                                backoffs_across(boundary, steps)
                                    .filter(|&exact| exact == (on == 1))
                                    .count()
                            };
                            *across += count(&slow_steps) - count(&fast_steps);
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
                // Outages cycles long, not a bucket long, are read in streaks.
                if channel.outages.len > Ticks::from(bucket) {
                    assert!(streak >= 2, "{what}: outages must be read in streaks");
                }
            }
        }
        assert!(skews > 0, "walks must cross the boundary");
        assert!(collapsed > 0, "fast-forward must engage");
        assert!(
            folded_across.iter().all(|&n| n > 0),
            "folded back-offs must end past ({}) and exactly on ({}) the boundary",
            folded_across[0],
            folded_across[1]
        );
    }

    #[test]
    fn walks_without_a_planner_step_identically_with_fast_forward() {
        // With no planner the hook consumes nothing, so every landing goes
        // back to the slow path unchanged: the same reads, dozes and
        // outcome, step for step.
        let tl = two_epoch_timeline_of(Unplanned);
        let mut skews = 0;
        for (air, tune_ins) in cases(&tl) {
            for t in tune_ins {
                for key in KEYS {
                    let (slow, _, slow_steps) = run_walk(&tl, key, t, air, false);
                    let (_, _, fast_steps) = run_walk(&tl, key, t, air, true);
                    assert_eq!(slow_steps, fast_steps, "key {key:?} t={t}");
                    skews += slow.version_skews;
                }
            }
        }
        assert!(skews > 0, "walks must cross the boundary");
    }
}
