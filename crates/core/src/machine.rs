//! Client protocol machines and the walker that drives them.
//!
//! Every access method in the paper is, from the client's perspective, a
//! little state machine: *read a bucket, decide, doze, wake, read again…*
//! This module captures that shape once so that all five schemes share a
//! single, carefully-tested accounting of the two metrics:
//!
//! * **access time** — bytes elapsed between tuning in and completing the
//!   query (downloading the record, or concluding it is absent);
//! * **tuning time** — bytes the client actually *listened* to, which is
//!   what drains the battery. Dozing advances the clock without tuning
//!   cost; this is the "selective tuning" of Imielinski et al. that all
//!   indexing schemes exist to enable.

use crate::bucket::{Bucket, BucketMeta};
use crate::channel::Channel;
use crate::error::ProtocolFault;
use crate::errors_model::{Air, ChannelModel, Reception, RetryPolicy};
use crate::Ticks;
use bda_obs::{BucketKind, NoopRecorder, Phase, PhaseSpans, Recorder, SpanRecorder};

/// What a protocol machine wants to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Keep listening and read the next complete bucket.
    ReadNext,
    /// Doze (radio off) until absolute time `t`, then read the bucket that
    /// starts there. Channel builders guarantee pointers are bucket-aligned,
    /// so the walker will find a bucket starting exactly at `t`; if the
    /// target is misaligned the walker reads the first complete bucket after
    /// `t`, which models a (buggy) client missing its wake-up.
    DozeTo(Ticks),
    /// Retune to carrier `carrier` of a channel group, then doze until
    /// absolute time `at` and read the bucket that starts there on that
    /// carrier: a [`Action::DozeTo`] whose target names a carrier. The
    /// retune costs the air time [`Source::retune`] reports before the
    /// doze; a source without that carrier aborts the query, as a doze
    /// into the past does.
    DozeOn {
        /// The carrier to tune to (0 is the home carrier).
        carrier: u32,
        /// Absolute wake-up time on that carrier.
        at: Ticks,
    },
    /// The query is complete.
    Finish(Verdict),
    /// The machine read a malformed bucket: a typed protocol fault instead
    /// of a client-side panic. The walker aborts the query (`aborted` set),
    /// because a fault on a version-consistent channel is a builder bug —
    /// version skew is reported *before* the payload reaches the machine,
    /// so staleness never masquerades as a fault.
    Fail(ProtocolFault),
}

/// Terminal result reported by a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Whether the requested record was downloaded.
    pub found: bool,
    /// Number of *false drops*: wrong data buckets downloaded because an
    /// index (signature) matched spuriously. Zero for exact indexes.
    pub false_drops: u32,
}

impl Verdict {
    /// Successful retrieval with no false drops.
    pub fn found() -> Self {
        Verdict {
            found: true,
            false_drops: 0,
        }
    }

    /// Search failed (record not broadcast).
    pub fn not_found() -> Self {
        Verdict {
            found: false,
            false_drops: 0,
        }
    }

    /// Attach a false-drop count.
    pub fn with_false_drops(mut self, n: u32) -> Self {
        self.false_drops = n;
        self
    }
}

/// A resumable client access protocol for payload type `P`.
///
/// The driver calls [`ProtocolMachine::start`] once with the tune-in time,
/// then feeds the machine every bucket it reads; the machine steers via the
/// returned [`Action`]s. Machines must be self-contained: everything they
/// know about the channel must come from constants captured at
/// construction (bucket counts, sizes) and from the payloads they read —
/// never from global knowledge of the cycle. This keeps the simulation
/// honest: a protocol can only be as clever as a real client.
pub trait ProtocolMachine<P> {
    /// Called once when the client tunes in at absolute time `tune_in`.
    fn start(&mut self, tune_in: Ticks) -> Action;

    /// Called after each bucket read with its payload and position metadata.
    fn on_bucket(&mut self, payload: &P, meta: BucketMeta) -> Action;

    /// Called instead of [`ProtocolMachine::on_bucket`] when the bucket was
    /// unusable: corrupted in transmission, or aired inside a scheduled
    /// carrier outage (see [`crate::errors_model::ChannelModel`]). The
    /// client listened to the whole bucket but cannot use its contents.
    /// The walker applies the retry policy's back-off to whatever action
    /// this returns, shifting it by whole cycles; inside an outage that
    /// back-off grows exponentially with the outage streak
    /// ([`RetryPolicy::recovery_cycles`]), so a client dozing through a
    /// dead span does not burn its retry budget one bucket at a time.
    ///
    /// The default restarts the access protocol from the current instant —
    /// correct for any scheme whose protocol is stateless across cycles,
    /// and the resynchronizing client's re-probe after an outage.
    /// Scanning schemes override this to rewind their cycle-coverage
    /// counters instead.
    fn on_corrupt(&mut self, meta: BucketMeta) -> Action {
        self.start(meta.end)
    }

    /// Classify a payload for phase attribution: does reading this bucket
    /// count as index traversal or as a data read? Only called when the
    /// walk carries an enabled [`Recorder`], never on the uninstrumented
    /// path. The default says `Data`, which is exact for flat broadcast
    /// (every bucket *is* data) and a safe fallback for custom machines.
    fn bucket_kind(&self, payload: &P) -> BucketKind {
        let _ = payload;
        BucketKind::Data
    }

    /// Analytically advance past a run of *uninteresting* buckets in one
    /// step — the fast-forward capability scan-heavy schemes use to
    /// collapse O(cycle) per-bucket wake-ups into O(1) per interesting
    /// bucket (key match, signature hit, coverage completion, give-up,
    /// probe-budget edge).
    ///
    /// Called by an opted-in [`Walk`] (over a frozen channel, or within
    /// the epoch on air over a timeline) while a `ReadNext` is pending,
    /// *before* the next bucket is read. The machine may consume any
    /// prefix of upcoming buckets whose slow-path handling it can
    /// reproduce exactly: it applies the same internal state transitions
    /// `on_bucket` would have, and commits the consumed buckets through
    /// `ctx` so access time, tuning time, probe counts and per-phase spans
    /// stay tick-identical to the bucket-by-bucket walk. A corrupted read
    /// ([`FastForward::clean`] consults the same fault oracle the walker
    /// uses) is mechanical too: the planner hands it to
    /// [`FastForward::retry`], which recovers through the walk's own
    /// recovery routine. It must stop *before* — never on — any bucket
    /// where the slow path does something non-mechanical: a (possible)
    /// match, a read that would complete coverage, a corrupted read that
    /// `retry` declines (a give-up), or the end of the run
    /// ([`FastForward::run`] is already cut at the probe budget and at the
    /// end of the program on air). The walker then reads that landing
    /// bucket through the ordinary slow path, so match/finish/abandon
    /// logic is never duplicated.
    ///
    /// The default consumes nothing — the conservative "one bucket at a
    /// time" behaviour every machine starts with.
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, P>) {
        let _ = ctx;
    }

    /// Take over storage that `spent`, the machine of a query that is over
    /// (finished, abandoned, or discarded for version skew), no longer
    /// needs, so this fresh machine's query need not allocate it: a slot
    /// hands its last machine to its next one, and a walk hands a skewed
    /// machine to the one that replaces it. Only capacity moves; what
    /// this machine does is unchanged. The default takes nothing.
    fn reuse(&mut self, spent: &mut Self)
    where
        Self: Sized,
    {
        let _ = spent;
    }
}

/// Longest run [`FastForward::run`] hands a planner on lossy air. A
/// planner checks its run for corruption before it looks at payloads, so
/// this bounds the fault-oracle calls spent past its other stops (the key,
/// a signature match, the coverage stop) when loss is rare; lossless runs
/// reach the end of the cycle.
const LOSSY_RUN: usize = 64;

/// A walk's count of corrupted reads and its current outage streak.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Retries {
    /// Corrupted reads so far.
    pub(crate) count: u32,
    /// Consecutive unusable reads that fell inside an outage window —
    /// drives the exponential resynchronization back-off; reset by any
    /// usable or merely-lossy read.
    pub(crate) outage_streak: u32,
}

impl Retries {
    /// The walker's side of one corrupted read, ending `elapsed` ticks
    /// after tune-in — the one recovery transition [`Walk::step`] and
    /// [`FastForward::retry`] apply. Counts
    /// the retry and extends the outage streak (`outage`) or resets it,
    /// and returns the new state with the whole cycles to back off: `None`
    /// when the policy gives up at this read (retry count or deadline).
    pub(crate) fn corrupt(
        self,
        policy: &RetryPolicy,
        outage: bool,
        elapsed: Ticks,
    ) -> (Retries, Option<u32>) {
        let next = Retries {
            count: self.count + 1,
            outage_streak: if outage { self.outage_streak + 1 } else { 0 },
        };
        if policy.gives_up(next.count, elapsed) {
            return (next, None);
        }
        let attempt = if outage {
            next.outage_streak
        } else {
            next.count
        };
        (next, Some(policy.recovery_cycles(attempt, outage)))
    }
}

/// The probe budget of a [`Walk`] over programs of at most `buckets`
/// buckets (over every carrier of a channel group) behind `channel`. A
/// correct protocol never needs more than a handful of
/// cycles; four cycles plus slack catches runaway machines without ever
/// triggering for correct ones on a lossless channel. Lossy channels get
/// a budget scaled by the worst-state retry factor; channels with outages
/// get further slack for resynchronization (outage recovery dozes whole
/// cycles, so the probe cost per outage is logarithmic, but the streak
/// resets buy extra reads).
pub(crate) fn probe_budget(buckets: usize, channel: &ChannelModel) -> u32 {
    let base = (buckets as u32).saturating_mul(4).saturating_add(64);
    let worst = channel.worst_loss();
    let mut budget = if worst > 0.0 {
        let factor = (1.0 / (1.0 - worst.min(0.99))).ceil() as u32 + 4;
        base.saturating_mul(factor)
    } else {
        base
    };
    if channel.has_outages() {
        budget = budget.saturating_mul(4).saturating_add(256);
    }
    budget
}

/// Hand an unusable read to [`ProtocolMachine::on_corrupt`] and back its
/// recovery action off by `cycles` whole cycles of `cycle_len`: the resume
/// point shifts by whole cycles, which keeps the bucket the machine
/// expects next (the cycle is periodic). The one back-off of [`Walk::step`]
/// and [`FastForward::retry`].
pub(crate) fn recover<P, M: ProtocolMachine<P>>(
    machine: &mut M,
    meta: BucketMeta,
    cycles: u32,
    cycle_len: Ticks,
) -> Action {
    let act = machine.on_corrupt(meta);
    if cycles == 0 {
        return act;
    }
    let shift = Ticks::from(cycles).saturating_mul(cycle_len);
    match act {
        Action::ReadNext => Action::DozeTo(meta.end.saturating_add(shift)),
        Action::DozeTo(t) => Action::DozeTo(t.saturating_add(shift)),
        finish => finish,
    }
}

/// Whether `cycles` cycles of `cycle_len` after `t` pass `Ticks::MAX`:
/// fast-forward leaves that stretch of the clock to the slow path, whose
/// saturating arithmetic must stay observable.
fn near_clock_end(t: Ticks, cycles: Ticks, cycle_len: Ticks) -> bool {
    cycle_len
        .checked_mul(cycles)
        .and_then(|w| t.checked_add(w))
        .is_none()
}

/// Bulk-accounting context for [`ProtocolMachine::fast_forward`].
///
/// Maintains a cursor over the upcoming buckets of the cycle plus the
/// aggregate accounting (clock, tuning, probes, retries, per-phase spans)
/// of everything consumed so far. The cursor starts at the first complete
/// bucket after the walk's current instant — exactly the bucket the slow
/// path would read next. A planner works a run at a time: it takes the
/// [`FastForward::run`] ahead, finds where the slow path would stop
/// mechanical work in it, and [`FastForward::commit`]s the prefix before
/// that point, which folds the prefix's accounting in O(1) from the
/// channel's prefix sums. When that point is a corrupted read, the
/// planner hands it to [`FastForward::retry`] and carries on.
#[derive(Debug)]
pub struct FastForward<'a, P> {
    ch: &'a Channel<P>,
    /// The air of the carrier the run airs on.
    air: &'a Air,
    policy: RetryPolicy,
    /// Whether the air can corrupt nothing (fixed per engagement), so
    /// [`FastForward::clean`] need not consult the fault oracle.
    lossless: bool,
    /// The walk's tune-in instant: a give-up deadline counts from here.
    tune_in: Ticks,
    /// The walk's retry count and outage streak, as of the cursor.
    retries: Retries,
    /// Cursor: index of the next unconsumed bucket.
    idx: usize,
    /// Absolute start instant of the cursor bucket.
    start: Ticks,
    /// Absolute instant the program on air ends: no read may start here
    /// or later. `Ticks::MAX` for a frozen program.
    limit: Ticks,
    /// Clock reached so far (== the walk's `now` plus consumed spans).
    now: Ticks,
    /// Tuning accumulated by consumed reads.
    tuning: Ticks,
    /// Reads consumed.
    probes: u32,
    /// Remaining probe budget (reads the walk may still take).
    left: u32,
    /// Buckets this engagement may still consume. Two cycles: a correct
    /// scan on lossless air never needs more before an interesting
    /// bucket, and the cap keeps a buggy planner from spinning. It also
    /// bounds how far an engagement's reads advance the clock; back-offs
    /// are bounded one by one ([`FastForward::retry`]).
    room: usize,
    /// Per-phase spans of the consumed buckets; `Some` only when the walk
    /// records (`R::ENABLED`), so an uninstrumented walk never zeroes them.
    spans: Option<PhaseSpans>,
    /// The start instant of the corrupted read [`FastForward::clean`]
    /// stopped at last, and whether it aired inside an outage: what
    /// [`FastForward::retry`] recovers from, without asking the fault
    /// oracle again.
    fault: Option<(Ticks, bool)>,
}

impl<'a, P> FastForward<'a, P> {
    /// The run ahead: the buckets from the cursor to the end of the
    /// cycle, cut at the probe budget (each bucket costs at most one read),
    /// at the consumption cap and, on lossy air, at `LOSSY_RUN` buckets.
    /// Empty once the cursor reaches the end of the program on air (the
    /// next epoch of a churning broadcast; never, on a frozen one), so the
    /// slow path reads — and version-checks — the first bucket of the next
    /// program. Epochs span whole cycles, so a run is either wholly before
    /// that end or empty.
    pub fn run(&self) -> &'a [Bucket<P>] {
        if self.start >= self.limit {
            return &[];
        }
        let mut budget = (self.left as usize).min(self.room);
        if !self.lossless {
            budget = budget.min(LOSSY_RUN);
        }
        let end = self.ch.num_buckets().min(self.idx + budget);
        &self.ch.buckets()[self.idx..end]
    }

    /// How many of the run's first `len` buckets come before its first
    /// corrupted read, when the planner reads offsets `0, stride,
    /// 2·stride, …` and dozes over the rest: `len` if none is corrupted.
    /// Consults the same pure fault oracle (bucket start instant + seed)
    /// the walker does — i.i.d. loss, burst loss and outages alike, through
    /// the batch's memo when the walk has one — but only on the buckets the
    /// planner reads, exactly like the slow path, and not at all on
    /// lossless air. A planner commits the clean prefix
    /// and hands the corrupted read at the cursor to
    /// [`FastForward::retry`].
    pub fn clean(&mut self, len: usize, stride: usize) -> usize {
        if self.lossless {
            return len;
        }
        let base = self.ch.start_of(self.idx);
        for o in (0..len).step_by(stride) {
            let at = self.start + (self.ch.start_of(self.idx + o) - base);
            let reception = self.air.reception(at);
            if reception != Reception::Clean {
                self.fault = Some((at, reception == Reception::Outage));
                return o;
            }
        }
        len
    }

    /// Consume the run's first `n` buckets as `n / stride` groups of
    /// `stride`: each group is one read followed by a doze (radio off)
    /// over the group's other `stride − 1` buckets — `stride = 1` for
    /// back-to-back reads, `2` for a signature read and the data bucket it
    /// rules out, `1 + frame` for a frame signature and its frame. The
    /// groups' reads take the `kinds` in turn: one kind for them all, or,
    /// with `stride = 1`, two kinds alternating (a multi-level alignment
    /// run's record signatures and data buckets). Clock, tuning and probes
    /// advance exactly as the slow path's reads and `DozeTo` actions
    /// would, and (when observed) each group attributes one span of its
    /// read's phase and, for `stride > 1`, one `Doze` span.
    ///
    /// O(1): the run's bytes come from the channel's prefix sums. With
    /// several groups the run must repeat with period `stride` times the
    /// number of kinds (every read the size of the read a period earlier),
    /// as the signature layouts do.
    pub fn commit(&mut self, n: usize, stride: usize, kinds: &[BucketKind]) {
        if n == 0 {
            return;
        }
        debug_assert!(n <= self.run().len(), "fast-forward past the run");
        debug_assert_eq!(n % stride, 0, "a group is a read and its doze");
        debug_assert!(
            kinds.len() == 1 || (kinds.len() == 2 && stride == 1),
            "one kind, or two alternating back-to-back reads"
        );
        let groups = n / stride;
        let last = self.idx + n - 1;
        let bytes = self.ch.end_of(last) - self.ch.start_of(self.idx);
        let size = |i: usize| Ticks::from(self.ch.bucket(i).size);
        let period = stride * kinds.len();
        debug_assert!(
            (stride == 1 && kinds.len() == 1)
                || (self.idx..=last)
                    .step_by(stride)
                    .all(|i| i < self.idx + period || size(i) == size(i - period)),
            "a multi-group run must repeat with period `stride` × kinds"
        );
        let read_bytes = if stride == 1 {
            bytes
        } else {
            groups as Ticks * size(self.idx)
        };
        // Identical to the slow path: the first read listens from `now`
        // through its bucket's end (any partial tail counts as tuning).
        let listened = self.start - self.now + read_bytes;
        self.tuning += listened;
        if let Some(spans) = self.spans.as_mut() {
            let phase = |kind: &BucketKind| match kind {
                BucketKind::Index => Phase::IndexTraversal,
                BucketKind::Data => Phase::DataRead,
            };
            match kinds {
                [kind] => spans.add_n(phase(kind), groups as u64, listened, listened),
                [first, second] => {
                    // The first kind reads the even groups, the first with
                    // the partial tail.
                    let evens = groups.div_ceil(2);
                    let heard = self.start - self.now + evens as Ticks * size(self.idx);
                    spans.add_n(phase(first), evens as u64, heard, heard);
                    let odds = (groups / 2) as u64;
                    spans.add_n(phase(second), odds, listened - heard, listened - heard);
                }
                _ => unreachable!("one or two read kinds"),
            }
            if stride > 1 {
                spans.add_n(Phase::Doze, groups as u64, bytes - read_bytes, 0);
            }
        }
        self.start += bytes;
        self.now = self.start;
        self.probes += groups as u32;
        self.left -= groups as u32;
        self.room -= n;
        self.idx = (last + 1) % self.ch.num_buckets();
        // Clean reads, so the outage streak resets, as on the slow path.
        self.retries.outage_streak = 0;
    }

    /// Recover from the corrupted read at the cursor exactly as the slow
    /// path would, through the walk's own recovery routine, so the
    /// planner can carry on with the run after it. Call it when
    /// [`FastForward::clean`] stops at the cursor, and only from a machine
    /// that recovers by reading on (`ReadNext`), as every scan machine
    /// does. Whether the read aired inside an outage comes from what
    /// `clean` found there.
    ///
    /// Consumes nothing and returns `false` when the read gives up (retry
    /// count or deadline) or its back-off would end within four cycles of
    /// `Ticks::MAX`: the slow path reads that bucket. Otherwise it calls
    /// the machine's `on_corrupt` once, commits the read
    /// (tuning, one probe, one `Retry` span), dozes the back-off as whole
    /// cycles, which keeps the cycle position (one `Doze` span when there
    /// is one), and moves the cursor past the bucket.
    pub fn retry<M: ProtocolMachine<P>>(&mut self, machine: &mut M) -> bool {
        debug_assert!(!self.run().is_empty(), "retry past the run");
        let bucket = self.ch.bucket(self.idx);
        let end = self.start + Ticks::from(bucket.size);
        let outage = match self.fault {
            Some((at, outage)) if at == self.start => outage,
            _ => self.air.reception(self.start) == Reception::Outage,
        };
        let (retries, backoff) = self
            .retries
            .corrupt(&self.policy, outage, end - self.tune_in);
        let cycle = self.ch.cycle_len();
        let Some(cycles) = backoff.filter(|&c| !near_clock_end(end, Ticks::from(c) + 4, cycle))
        else {
            return false;
        };
        let meta = BucketMeta {
            index: self.idx,
            start: self.start,
            end,
            size: bucket.size,
            version: bucket.version,
        };
        let wake = end + Ticks::from(cycles) * cycle;
        let next = recover(machine, meta, cycles, cycle);
        debug_assert_eq!(
            next,
            if cycles == 0 {
                Action::ReadNext
            } else {
                Action::DozeTo(wake)
            },
            "scan machines recover by reading on"
        );
        self.retries = retries;
        let listened = end - self.now;
        self.tuning += listened;
        self.probes += 1;
        self.left -= 1;
        self.room -= 1;
        if let Some(spans) = self.spans.as_mut() {
            spans.add_n(Phase::Retry, 1, listened, listened);
            if cycles > 0 {
                spans.add_n(Phase::Doze, 1, wake - end, 0);
            }
        }
        self.idx = (self.idx + 1) % self.ch.num_buckets();
        self.start = wake;
        self.now = wake;
        true
    }
}

/// The result of one client query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the record was retrieved.
    pub found: bool,
    /// Access time: bytes from tune-in until the query completed (`At`).
    pub access: Ticks,
    /// Tuning time: bytes the client listened to (`Tt`). Always ≤ `access`.
    pub tuning: Ticks,
    /// Number of buckets read.
    pub probes: u32,
    /// Wrong data buckets downloaded due to spurious index matches.
    pub false_drops: u32,
    /// Corrupted bucket transmissions the client had to recover from
    /// (always 0 on a lossless channel).
    pub retries: u32,
    /// Set when the client gave up on an error-prone channel: its
    /// [`RetryPolicy`] ran out of retries or passed its deadline, or the
    /// walk ran out of probe budget after it had retried (or, over a
    /// churning program, restarted). An abandoned query is a *truthful*
    /// failure — `found` is false and the client knows it stopped early —
    /// unlike `aborted`, which flags a protocol bug.
    pub abandoned: bool,
    /// Set when the walker aborted the query because the machine exceeded
    /// its probe budget, dozed into the past, or reported a typed
    /// [`ProtocolFault`] — all indicate a bug in a channel builder or
    /// protocol, and tests assert it never happens.
    pub aborted: bool,
    /// Times the walk discarded its machine and restarted against the
    /// current broadcast program after detecting version skew (always 0 on
    /// a frozen channel).
    pub stale_restarts: u32,
    /// Clean reads whose program version differed from the one the walk's
    /// machine was built against (always 0 on a frozen channel). Every
    /// skew restarts the machine, so this equals `stale_restarts`; both
    /// are reported because the exported metrics carry both.
    pub version_skews: u32,
}

/// One externally visible step of a client query — the event granularity at
/// which the discrete-event testbed (`bda-sim`) schedules clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkStep {
    /// The client listened from `from` to `until` and read bucket `bucket`.
    /// (`from` may precede the bucket's start: a freshly tuned-in client
    /// listens through the tail of a partial bucket to find the boundary —
    /// the paper's *initial wait* `Ft`.)
    Read {
        /// Index of the bucket read.
        bucket: usize,
        /// Absolute time listening began.
        from: Ticks,
        /// Absolute time the bucket was fully received.
        until: Ticks,
    },
    /// The client dozed (radio off) until `until`.
    Doze {
        /// Absolute wake-up time.
        until: Ticks,
    },
    /// The query finished with the given outcome. Subsequent calls return
    /// the same value.
    Done(AccessOutcome),
}

/// The bucket a [`Walk`] reads next: the channel of the program on air,
/// the epoch that program airs in (always 0 on a frozen channel), and the
/// bucket's index and absolute start instant.
pub struct Landing<'a, P> {
    /// The program's channel.
    pub(crate) ch: &'a Channel<P>,
    /// The program's epoch on a [`crate::dynamic::ProgramTimeline`].
    pub(crate) epoch: usize,
    /// The bucket's index in `ch`.
    pub(crate) idx: usize,
    /// The bucket's absolute start instant.
    pub(crate) start: Ticks,
}

/// The broadcast program a [`Walk`] reads, for a walk whose machine has
/// type `M`: a frozen [`Channel`] (`&Channel<P>`), a
/// [`crate::dynamic::ProgramTimeline`] of re-cut programs
/// ([`crate::dynamic::Versioned`]), the carriers of an indexed channel
/// group ([`crate::multichannel::GroupSource`]), or the carrier a striped
/// group routes the query to ([`crate::multichannel::StripedSource`]).
///
/// The source decides at compile time, not per read, what a read costs
/// beyond the bucket itself. A frozen channel looks the bucket up and
/// nothing more: no epoch lookup, no header-version check, one carrier
/// whose air is the walk's, and fast-forward may run to `Ticks::MAX`. A
/// timeline also finds the epoch on air, lets fast-forward run only to
/// that epoch's end, and on a header version other than the machine's
/// hands the walk a fresh machine built against the program on air. A
/// channel group lands each read on the carrier the client is tuned to,
/// behind that carrier's air, and charges every retune, the one a striped
/// query makes before its machine starts included ([`Source::enter`]).
pub trait Source<'a, M> {
    /// The bucket payload type.
    type Payload: 'a;

    /// Buckets in the largest program the walk may read (sizes its probe
    /// budget).
    fn max_buckets(&self) -> usize;

    /// The first complete bucket a client tuning in (or resuming) at `t`
    /// can read on the carrier it is tuned to. A walk asks at instants
    /// that never decrease, so a source may remember where it landed last
    /// and search on from there.
    fn first_complete_at(&mut self, t: Ticks) -> Landing<'a, Self::Payload>;

    /// The instant fast-forward may not start a read at or past while it
    /// runs through the program of `at` — the start of the next program,
    /// `Ticks::MAX` if none follows — or `None` if it may not engage
    /// there: the program is not the one the walk's machine was built
    /// against, so its first bucket is the slow path's to version-check.
    fn ff_limit(&self, at: &Landing<'a, Self::Payload>) -> Option<Ticks>;

    /// The machine the walk continues with when the clean bucket at `at`
    /// carries program version `version` other than the one the walk's
    /// machine was built against (version skew): a fresh machine built
    /// against the program on air, which the source re-anchors on. `None`
    /// when the versions agree — always, on a frozen channel, which
    /// carries one program.
    fn respawn(&mut self, at: &Landing<'a, Self::Payload>, version: u64) -> Option<M>;

    /// The air of the carrier the client is tuned to, for a walk whose
    /// home carrier's air is `base`. On the home carrier — a
    /// single-carrier source's only one — that is `base` itself, which an
    /// engine's walks hear through their batch's shared memo; a carrier
    /// with air of its own (a striped group's routed channel, an indexed
    /// group's data carriers) returns that, which the walk asks directly.
    #[inline]
    fn air<'c>(&'c self, base: &'c Air) -> &'c Air {
        base
    }

    /// Tune the client to `carrier`, whose air derives from `base`, and
    /// return the air time the retune costs — nothing when it is tuned
    /// there already — or `None` if the source has no such carrier. A
    /// single-carrier source has only the home carrier 0.
    #[inline]
    fn retune(&mut self, carrier: u32, base: &ChannelModel) -> Option<Ticks> {
        let _ = base;
        (carrier == 0).then_some(0)
    }

    /// Tune the client from the home carrier, whose air is `base`, to the
    /// carrier its query starts on, and return the air time that retune
    /// costs. The walk calls it once, before its machine starts. A source
    /// whose queries start on the home carrier costs nothing.
    #[inline]
    fn enter(&mut self, base: &ChannelModel) -> Ticks {
        let _ = base;
        0
    }
}

impl<'a, P, M> Source<'a, M> for &'a Channel<P> {
    type Payload = P;

    fn max_buckets(&self) -> usize {
        self.num_buckets()
    }

    #[inline]
    fn first_complete_at(&mut self, t: Ticks) -> Landing<'a, P> {
        let (idx, start) = Channel::first_complete_at(self, t);
        Landing {
            ch: self,
            epoch: 0,
            idx,
            start,
        }
    }

    #[inline]
    fn ff_limit(&self, _at: &Landing<'a, P>) -> Option<Ticks> {
        Some(Ticks::MAX)
    }

    #[inline]
    fn respawn(&mut self, _at: &Landing<'a, P>, _version: u64) -> Option<M> {
        None
    }
}

/// Executes a [`ProtocolMachine`] against a broadcast program, one step at
/// a time, accounting access and tuning time — the one walk of the
/// reproduction, over a frozen [`Channel`], a churning
/// [`crate::dynamic::ProgramTimeline`] or the carriers of a channel group
/// (see [`Source`]).
///
/// `Walk` is both the fast in-process driver (via [`run_machine`] and its
/// two variants, which fast-forward) and the unit of scheduling for the
/// event-driven testbed, which alternates [`Walk::step`] with its global
/// event queue. The two drivers execute the identical code path, and
/// fast-forward is tick-exact, so their results cannot diverge — a
/// property the integration suite verifies explicitly.
///
/// Over a timeline the walk also compares each clean bucket's header
/// version with the version its machine was built against. The payload of
/// a skewed bucket never reaches the stale machine: the walk counts the
/// skew, respawns the machine against the program on air and restarts the
/// protocol at that bucket. So a machine only ever sees payloads of its
/// own program version, and every verdict is computed within one program.
#[derive(Debug)]
pub struct Walk<Src, M, R = NoopRecorder> {
    src: Src,
    machine: M,
    tune_in: Ticks,
    now: Ticks,
    tuning: Ticks,
    probes: u32,
    retries: Retries,
    /// Machines discarded for version skew (always 0 on a frozen channel).
    restarts: u32,
    false_drops_hint: u32,
    pending: Option<Action>,
    outcome: Option<AccessOutcome>,
    max_probes: u32,
    /// The home carrier's air (the only carrier's, on a single-carrier
    /// source).
    air: Air,
    policy: RetryPolicy,
    ff: bool,
    recorder: R,
}

impl<'a, Src: Source<'a, M>, M: ProtocolMachine<Src::Payload>> Walk<Src, M> {
    /// Begin a query at absolute time `tune_in` over a lossless channel.
    pub fn new(src: Src, machine: M, tune_in: Ticks) -> Self {
        Walk::with_channel_recorder(
            src,
            machine,
            tune_in,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
            NoopRecorder,
        )
    }
}

impl<'a, Src: Source<'a, M>, M: ProtocolMachine<Src::Payload>, R: Recorder> Walk<Src, M, R> {
    /// Begin a query at absolute time `tune_in` behind `air` (a
    /// [`ChannelModel`] — i.i.d. or burst loss, with or without outages; a
    /// caller holding an [`crate::errors_model::ErrorModel`] lifts it with
    /// `ChannelModel::from`, which is bit-identical — or an engine batch's
    /// shared [`Air::Heard`] memo of one), recovering from unusable reads
    /// under `policy` and reporting every step's phase-attributed span to
    /// `recorder`. With [`NoopRecorder`] (`ENABLED = false`) every
    /// instrumentation site compiles out.
    ///
    /// A query that starts on a carrier other than the home one retunes
    /// first ([`Source::enter`]): the switch is access time only, recorded
    /// as one [`Phase::ChannelSwitch`] span here, and the machine starts
    /// when it ends, so a give-up deadline counts it. `machine` must have
    /// been built against the program `src` airs at that instant.
    pub fn with_channel_recorder(
        mut src: Src,
        mut machine: M,
        tune_in: Ticks,
        air: impl Into<Air>,
        policy: RetryPolicy,
        mut recorder: R,
    ) -> Self {
        let air = air.into();
        let sw = src.enter(air.model());
        if R::ENABLED && sw > 0 {
            recorder.span(Phase::ChannelSwitch, sw, 0);
        }
        let now = tune_in.saturating_add(sw);
        let pending = machine.start(now);
        Walk {
            max_probes: probe_budget(src.max_buckets(), air.model()),
            src,
            machine,
            tune_in,
            now,
            tuning: 0,
            probes: 0,
            retries: Retries::default(),
            restarts: 0,
            false_drops_hint: 0,
            pending: Some(pending),
            outcome: None,
            air,
            policy,
            ff: false,
            recorder,
        }
    }

    /// Turn analytical fast-forward on or off: while a `ReadNext` is
    /// pending the walk lets the machine bulk-consume uninteresting buckets
    /// (see [`ProtocolMachine::fast_forward`]) before the next real read,
    /// so a linear scan takes O(1) steps per *interesting* bucket instead
    /// of one per bucket. Over a timeline it engages only within the epoch
    /// on air, and only when that epoch carries the machine's program; the
    /// boundary bucket goes to the slow path, which detects the skew.
    /// Outcomes, access/tuning accounting, probe counts, version skews and
    /// per-phase spans are tick-identical to the slow path; only the
    /// [`WalkStep`] granularity (and hence the event count of an engine
    /// driving the walk) changes.
    ///
    /// Off by default, so a stepped `Walk` reports every bucket — the
    /// ground truth that timelines and the reference oracle replay. The
    /// one-shot drivers ([`run_machine`] and its variants) always turn it
    /// on, since their callers see only the final outcome and spans.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.ff = enabled;
    }

    /// The walk's recorder (e.g. to read accumulated spans).
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The air the walk reads: its home carrier's air and the client's
    /// retry policy.
    pub(crate) fn air(&self) -> (Air, RetryPolicy) {
        (self.air.clone(), self.policy)
    }

    /// The walk's current machine, for a slot's next query to reuse.
    pub(crate) fn machine_mut(&mut self) -> &mut M {
        &mut self.machine
    }

    fn finish(&mut self, found: bool, false_drops: u32, aborted: bool) -> WalkStep {
        let out = AccessOutcome {
            found,
            access: self.now - self.tune_in,
            tuning: self.tuning,
            probes: self.probes,
            false_drops,
            retries: self.retries.count,
            abandoned: false,
            aborted,
            stale_restarts: self.restarts,
            version_skews: self.restarts,
        };
        self.outcome = Some(out);
        WalkStep::Done(out)
    }

    /// Give up truthfully: the retry policy's budget or deadline ran out,
    /// or the probe budget did on a walk that retried or restarted.
    fn abandon(&mut self) -> WalkStep {
        let mut step = self.finish(false, self.false_drops_hint, false);
        if let (Some(out), WalkStep::Done(done)) = (self.outcome.as_mut(), &mut step) {
            out.abandoned = true;
            done.abandoned = true;
        }
        step
    }

    /// The probe budget ran out. On a channel that actually corrupted
    /// reads — or under program churn that starved the walk — this is a
    /// truthful abandonment (the client drowned in retries or restarts,
    /// not a protocol bug); on a clean walk over one program it flags a
    /// runaway machine and aborts.
    fn exhaust(&mut self) -> WalkStep {
        if self.retries.count > 0 || self.restarts > 0 {
            self.abandon()
        } else {
            self.finish(false, self.false_drops_hint, true)
        }
    }

    /// Doze (radio off) until `t`, then read on.
    fn doze(&mut self, t: Ticks) -> WalkStep {
        if t < self.now {
            // Dozing into the past is a protocol/builder bug.
            return self.finish(false, self.false_drops_hint, true);
        }
        if R::ENABLED {
            self.recorder.span(Phase::Doze, t - self.now, 0);
        }
        self.now = t;
        self.pending = Some(Action::ReadNext);
        WalkStep::Doze { until: t }
    }

    /// Execute the machine's next action and report what happened.
    pub fn step(&mut self) -> WalkStep {
        if let Some(out) = self.outcome {
            return WalkStep::Done(out);
        }
        let action = self
            .pending
            .take()
            .expect("walk invariant: pending action present while not done");
        match action {
            Action::ReadNext => {
                if self.probes >= self.max_probes {
                    return self.exhaust();
                }
                // The instant this step was woken at: a fast-forward
                // below moves the clock past it.
                let woke = self.now;
                let mut at = self.src.first_complete_at(self.now);
                let limit = if self.ff && self.probes > 0 {
                    self.src.ff_limit(&at)
                } else {
                    None
                };
                if let Some(limit) = limit {
                    let (idx, start) = engage(
                        at.ch,
                        &mut self.machine,
                        (at.idx, at.start),
                        limit,
                        Tally {
                            air: self.src.air(&self.air),
                            policy: self.policy,
                            tune_in: self.tune_in,
                            now: &mut self.now,
                            tuning: &mut self.tuning,
                            probes: &mut self.probes,
                            max_probes: self.max_probes,
                            retries: &mut self.retries,
                            recorder: &mut self.recorder,
                        },
                    );
                    if self.probes >= self.max_probes {
                        // The scan burned the whole budget on uninteresting
                        // buckets; the next read gives up, as it would have
                        // bucket-by-bucket: at the instant the scan reached,
                        // so a driver sees the walk end where it would have.
                        self.pending = Some(Action::ReadNext);
                        return WalkStep::Doze { until: self.now };
                    }
                    // Past the program's end (a back-off may doze there),
                    // the next program holds the landing.
                    at = if start < limit {
                        Landing { idx, start, ..at }
                    } else {
                        self.src.first_complete_at(self.now)
                    };
                    debug_assert!({
                        let slow = self.src.first_complete_at(self.now);
                        (slow.epoch, slow.idx, slow.start) == (at.epoch, at.idx, at.start)
                    });
                }
                let bucket = at.ch.bucket(at.idx);
                let size = Ticks::from(bucket.size);
                // Saturating, like the start: a back-off may doze the walk
                // to within a bucket of `Ticks::MAX`.
                let end = at.start.saturating_add(size);
                let from = self.now;
                // The client listens from `now` until the bucket completes:
                // any partial-bucket tail counts as tuning (initial wait).
                self.tuning += end - self.now;
                self.now = end;
                self.probes += 1;
                let meta = BucketMeta {
                    index: at.idx,
                    start: at.start,
                    end,
                    size: size as u32,
                    version: bucket.version,
                };
                // What the carrier the read lands on delivers: one look at
                // its air (through the batch's memo, on an engine's home
                // carrier) says whether the read is usable and, when it is
                // not, whether the carrier was gone.
                let reception = self.src.air(&self.air).reception(at.start);
                let corrupted = reception != Reception::Clean;
                // A corrupted transmission hides the header too: the client
                // cannot even see the version. Skew, if any, is caught on
                // the next clean read — after an outage, against whichever
                // program is on the air then.
                let fresh = if corrupted {
                    None
                } else {
                    self.src.respawn(&at, bucket.version)
                };
                if R::ENABLED {
                    // Corruption trumps skew (the header is unreadable);
                    // skew trumps structure (the payload is withheld from
                    // the machine, so the read buys recovery, not
                    // progress); the very first read is the initial probe;
                    // all other reads classify by what the machine sees.
                    let phase = if corrupted {
                        Phase::Retry
                    } else if fresh.is_some() {
                        Phase::StaleRecovery
                    } else if self.probes == 1 {
                        Phase::InitialProbe
                    } else {
                        match self.machine.bucket_kind(&bucket.payload) {
                            BucketKind::Index => Phase::IndexTraversal,
                            BucketKind::Data => Phase::DataRead,
                        }
                    };
                    self.recorder.span(phase, end - from, end - from);
                }
                let next = if corrupted {
                    // Inside an outage the carrier is gone: the machine
                    // resynchronizes (default: re-probe the index) and the
                    // walker dozes exponentially more whole cycles per
                    // consecutive dead read, so an outage costs O(log)
                    // probes instead of one per bucket. The back-off counts
                    // cycles of the program just read.
                    let outage = reception == Reception::Outage;
                    let (retries, backoff) =
                        self.retries
                            .corrupt(&self.policy, outage, self.now - self.tune_in);
                    self.retries = retries;
                    let Some(cycles) = backoff else {
                        let done = self.abandon();
                        // A bucket-by-bucket walk ends, for its driver, as
                        // this read begins: report a fast-forward to it
                        // first, and the outcome at the next step.
                        return if from > woke {
                            WalkStep::Doze { until: from }
                        } else {
                            done
                        };
                    };
                    recover(&mut self.machine, meta, cycles, at.ch.cycle_len())
                } else {
                    self.retries.outage_streak = 0;
                    match fresh {
                        // Restart the protocol against the program that owns
                        // the skewed bucket. The bucket is already paid for
                        // and is a valid bucket of the new program, so a
                        // fresh machine that reads next, or dozes to this
                        // bucket's start, reads this one.
                        Some(mut machine) => {
                            self.restarts += 1;
                            machine.reuse(&mut self.machine);
                            self.machine = machine;
                            match self.machine.start(meta.start) {
                                Action::ReadNext => self.machine.on_bucket(&bucket.payload, meta),
                                Action::DozeTo(t) if t == meta.start => {
                                    self.machine.on_bucket(&bucket.payload, meta)
                                }
                                act => act,
                            }
                        }
                        None => self.machine.on_bucket(&bucket.payload, meta),
                    }
                };
                if let Action::Finish(v) = next {
                    self.false_drops_hint = v.false_drops;
                }
                self.pending = Some(next);
                WalkStep::Read {
                    bucket: at.idx,
                    from,
                    until: end,
                }
            }
            Action::DozeTo(t) => self.doze(t),
            Action::DozeOn { carrier, at } => {
                let Some(sw) = self.src.retune(carrier, self.air.model()) else {
                    return self.finish(false, self.false_drops_hint, true);
                };
                // A retuning radio is deaf: the switch is access time
                // only, and the doze to `at` follows it.
                if sw > 0 {
                    if R::ENABLED {
                        self.recorder.span(Phase::ChannelSwitch, sw, 0);
                    }
                    self.now = self.now.saturating_add(sw);
                }
                self.doze(at)
            }
            Action::Finish(v) => self.finish(v.found, v.false_drops, false),
            // A typed protocol fault on a version-consistent program is a
            // builder bug: abort so the differential suites catch it.
            Action::Fail(_) => self.finish(false, self.false_drops_hint, true),
        }
    }
}

/// What a walk lends [`engage`]: its air, policy and tune-in; the clock,
/// tuning, probe count and retries a fast-forward engagement folds into;
/// the probe budget it must stay within; and the recorder its spans
/// replay through.
struct Tally<'w, R> {
    air: &'w Air,
    policy: RetryPolicy,
    tune_in: Ticks,
    now: &'w mut Ticks,
    tuning: &'w mut Ticks,
    probes: &'w mut u32,
    max_probes: u32,
    retries: &'w mut Retries,
    recorder: &'w mut R,
}

/// One fast-forward engagement of [`Walk::step`]. Lets `machine`
/// bulk-consume the uninteresting buckets of `ch` from `cursor` (the
/// bucket the slow path would read next), corrupted reads and their
/// back-offs included, without starting a read at or after `limit`, then
/// folds its aggregate accounting into `tally` as if each bucket had been
/// stepped: retries first, so a walk that then finds its probe budget
/// spent abandons truthfully. Returns the cursor's landing: the bucket the
/// slow path reads next, i.e. `first_complete_at(now)`, unless the cursor
/// reached `limit` (a back-off may end there or past it), where the caller
/// must look the landing up in the next program.
fn engage<P, M: ProtocolMachine<P>, R: Recorder>(
    ch: &Channel<P>,
    machine: &mut M,
    cursor: (usize, Ticks),
    limit: Ticks,
    tally: Tally<'_, R>,
) -> (usize, Ticks) {
    // Disengage within four cycles of the clock's end: the slow path's
    // saturating arithmetic must stay observable. An engagement's reads
    // advance the clock by at most its `room`, two cycles and two
    // buckets; each back-off is guarded on its own.
    if near_clock_end(*tally.now, 4, ch.cycle_len()) {
        return cursor;
    }
    let (idx, start) = cursor;
    let mut ctx = FastForward {
        ch,
        air: tally.air,
        policy: tally.policy,
        lossless: tally.air.model().is_lossless(),
        tune_in: tally.tune_in,
        retries: *tally.retries,
        idx,
        start,
        limit,
        now: *tally.now,
        tuning: 0,
        probes: 0,
        left: tally.max_probes - *tally.probes,
        room: 2 * ch.num_buckets() + 2,
        spans: R::ENABLED.then(PhaseSpans::new),
        fault: None,
    };
    machine.fast_forward(&mut ctx);
    if ctx.probes == 0 {
        return cursor;
    }
    *tally.retries = ctx.retries;
    *tally.tuning += ctx.tuning;
    *tally.now = ctx.now;
    *tally.probes += ctx.probes;
    if let Some(spans) = ctx.spans {
        for (phase, t) in spans.iter() {
            if t.count > 0 {
                tally.recorder.span_n(phase, t.count, t.access, t.tuning);
            }
        }
    }
    (ctx.idx, ctx.start)
}

/// Drive a machine to completion over a lossless channel with
/// fast-forward on and return its outcome — the direct walker behind
/// `DynSystem::probe`, benchmarks and analytical-validation sweeps, over a
/// frozen channel or a timeline alike. Fast-forward is tick-exact, so the
/// outcome equals a bucket-by-bucket [`Walk`]'s; only the step count
/// differs.
pub fn run_machine<'a, Src: Source<'a, M>, M: ProtocolMachine<Src::Payload>>(
    src: Src,
    machine: M,
    tune_in: Ticks,
) -> AccessOutcome {
    run_machine_with_channel(
        src,
        machine,
        tune_in,
        ChannelModel::NONE,
        RetryPolicy::UNBOUNDED,
    )
}

/// [`run_machine`] behind a [`ChannelModel`] (i.i.d. or burst loss and/or
/// outages) with an explicit client [`RetryPolicy`].
pub fn run_machine_with_channel<'a, Src: Source<'a, M>, M: ProtocolMachine<Src::Payload>>(
    src: Src,
    machine: M,
    tune_in: Ticks,
    channel: ChannelModel,
    policy: RetryPolicy,
) -> AccessOutcome {
    let walk = Walk::with_channel_recorder(src, machine, tune_in, channel, policy, NoopRecorder);
    drain_walk(walk).0
}

/// [`run_machine_with_channel`] with span instrumentation: also returns the
/// walk's per-phase access/tuning decomposition, whose totals equal the
/// outcome's `access` and `tuning` exactly (spans are recorded as the
/// bytes are paid, so the sums telescope). Skewed reads land in
/// [`Phase::StaleRecovery`]. Fast-forwarded spans equal the
/// bucket-by-bucket walk's.
pub fn run_machine_observed_channel<'a, Src: Source<'a, M>, M: ProtocolMachine<Src::Payload>>(
    src: Src,
    machine: M,
    tune_in: Ticks,
    channel: ChannelModel,
    policy: RetryPolicy,
) -> (AccessOutcome, PhaseSpans) {
    let walk =
        Walk::with_channel_recorder(src, machine, tune_in, channel, policy, SpanRecorder::new());
    let (out, recorder) = drain_walk(walk);
    (out, recorder.spans)
}

/// The one-shot drivers' shared loop: step `walk` to completion with
/// fast-forward on, then hand back its outcome and recorder.
fn drain_walk<'a, Src: Source<'a, M>, M: ProtocolMachine<Src::Payload>, R: Recorder>(
    mut walk: Walk<Src, M, R>,
) -> (AccessOutcome, R) {
    walk.set_fast_forward(true);
    loop {
        if let WalkStep::Done(out) = walk.step() {
            return (out, walk.recorder);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::errors_model::{BurstModel, ErrorModel, OutageSchedule};

    fn ch(sizes: &[u32]) -> Channel<usize> {
        Channel::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| Bucket::new(s, i))
                .collect(),
        )
        .unwrap()
    }

    /// Reads `reads` buckets then finishes; optionally dozes `doze` bytes
    /// after the first read.
    struct Scripted {
        reads: u32,
        doze: Option<Ticks>,
        seen: Vec<usize>,
    }

    impl ProtocolMachine<usize> for Scripted {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, payload: &usize, meta: BucketMeta) -> Action {
            self.seen.push(*payload);
            self.reads -= 1;
            if self.reads == 0 {
                Action::Finish(Verdict::found())
            } else if let Some(d) = self.doze.take() {
                Action::DozeTo(meta.end.saturating_add(d))
            } else {
                Action::ReadNext
            }
        }
    }

    #[test]
    fn accounting_for_sequential_reads() {
        let c = ch(&[10, 20, 30]);
        // Tune in at t=5 (mid bucket 0): listen 5 bytes of tail, then read
        // bucket 1 (20 bytes) and bucket 2 (30 bytes).
        let out = run_machine(
            &c,
            Scripted {
                reads: 2,
                doze: None,
                seen: vec![],
            },
            5,
        );
        assert!(out.found);
        assert!(!out.aborted);
        assert_eq!(out.probes, 2);
        // access = (10-5) + 20 + 30 = 55; tuning identical (no doze).
        assert_eq!(out.access, 55);
        assert_eq!(out.tuning, 55);
    }

    #[test]
    fn doze_advances_clock_without_tuning() {
        let c = ch(&[10, 20, 30]);
        // Read bucket 0 (tune in aligned at 0), doze 20 bytes (to start of
        // bucket 2 at t=30), read bucket 2.
        let out = run_machine(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            0,
        );
        assert!(out.found);
        assert_eq!(out.probes, 2);
        assert_eq!(out.access, 60); // 10 (read) + 20 (doze) + 30 (read)
        assert_eq!(out.tuning, 40); // only the two reads
    }

    #[test]
    fn walk_steps_report_events_in_order() {
        let c = ch(&[10, 20, 30]);
        let mut walk = Walk::new(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            0,
        );
        assert_eq!(
            walk.step(),
            WalkStep::Read {
                bucket: 0,
                from: 0,
                until: 10
            }
        );
        assert_eq!(walk.step(), WalkStep::Doze { until: 30 });
        assert_eq!(
            walk.step(),
            WalkStep::Read {
                bucket: 2,
                from: 30,
                until: 60
            }
        );
        let WalkStep::Done(out) = walk.step() else {
            panic!("the walk finishes after its second read")
        };
        assert!(out.found);
        // Done is sticky.
        assert_eq!(walk.step(), WalkStep::Done(out));
    }

    /// A machine that never finishes must be aborted by the probe budget.
    struct Runaway;
    impl ProtocolMachine<usize> for Runaway {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
            Action::ReadNext
        }
    }

    #[test]
    fn runaway_machines_are_aborted() {
        let c = ch(&[10, 20]);
        let out = run_machine(&c, Runaway, 0);
        assert!(out.aborted);
        assert!(!out.found);
    }

    /// A machine that dozes backwards must be aborted.
    struct TimeTraveller;
    impl ProtocolMachine<usize> for TimeTraveller {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, meta: BucketMeta) -> Action {
            Action::DozeTo(meta.start.saturating_sub(1))
        }
    }

    #[test]
    fn backwards_doze_is_aborted() {
        let c = ch(&[10, 20]);
        let out = run_machine(&c, TimeTraveller, 3);
        assert!(out.aborted);
    }

    /// A machine that reports a typed fault on its first bucket.
    struct Faulty;
    impl ProtocolMachine<usize> for Faulty {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
            Action::Fail(ProtocolFault::DanglingPointer)
        }
    }

    #[test]
    fn typed_faults_abort_instead_of_panicking() {
        let c = ch(&[10, 20]);
        let out = run_machine(&c, Faulty, 0);
        assert!(out.aborted, "a fault on a frozen channel is a builder bug");
        assert!(!out.found);
        assert!(!out.abandoned);
        assert_eq!(out.probes, 1, "the faulting read still cost a probe");
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::found().found);
        assert!(!Verdict::not_found().found);
        assert_eq!(Verdict::found().with_false_drops(3).false_drops, 3);
    }

    /// Finishes as soon as it sees any usable bucket; restarts on corrupt
    /// ones (the default `on_corrupt`).
    struct FirstGood;
    impl ProtocolMachine<usize> for FirstGood {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
            Action::Finish(Verdict::found())
        }
    }

    #[test]
    fn bounded_retries_abandon_truthfully() {
        let c = ch(&[10, 20]);
        // Every transmission corrupt: budget of 2 retries means the third
        // corrupt read gives up.
        let out = run_machine_with_channel(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1).into(),
            RetryPolicy::bounded(2),
        );
        assert!(out.abandoned);
        assert!(!out.found);
        assert!(!out.aborted, "abandonment is not a protocol bug");
        assert_eq!(out.retries, 3);
        assert_eq!(out.probes, 3);
    }

    #[test]
    fn backoff_dozes_whole_cycles_between_retries() {
        let c = ch(&[10, 20]); // cycle length 30
        let immediate = run_machine_with_channel(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1).into(),
            RetryPolicy::bounded(2),
        );
        let backed_off = run_machine_with_channel(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1).into(),
            RetryPolicy::bounded(2).with_backoff(1),
        );
        assert!(backed_off.abandoned);
        // Two recoveries each doze one extra cycle; the final corrupt read
        // abandons without a back-off.
        assert_eq!(backed_off.access, immediate.access + 2 * c.cycle_len());
        // Back-off is radio-off time: tuning unchanged.
        assert_eq!(backed_off.tuning, immediate.tuning);
    }

    #[test]
    fn give_up_deadline_abandons_at_next_corrupt_read() {
        let c = ch(&[10, 20]);
        let out = run_machine_with_channel(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1).into(),
            RetryPolicy::default().with_deadline(1),
        );
        assert!(out.abandoned);
        assert_eq!(out.retries, 1, "first corrupt read is past the deadline");
    }

    #[test]
    fn spans_decompose_access_and_tuning_exactly() {
        let c = ch(&[10, 20, 30]);
        // Tune in mid-bucket at t=5: initial probe listens through bucket 0's
        // tail + bucket 1 (5+20... no: first_complete_at(5) is bucket 1, so
        // the client listens 5 bytes of bucket 0 tail then bucket 1).
        let (out, spans) = run_machine_observed_channel(
            &c,
            Scripted {
                reads: 2,
                doze: Some(5),
                seen: vec![],
            },
            5,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        assert!(out.found);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        assert_eq!(spans.get(Phase::InitialProbe).count, 1);
        assert_eq!(spans.get(Phase::InitialProbe).access, 25); // 5 tail + 20
        assert_eq!(spans.get(Phase::Doze).access, 5);
        assert_eq!(spans.get(Phase::Doze).tuning, 0);
        assert_eq!(spans.get(Phase::DataRead).count, 1); // default bucket_kind
        assert_eq!(spans.get(Phase::Retry).count, 0);
    }

    #[test]
    fn corrupt_reads_are_attributed_to_retry() {
        let c = ch(&[10, 20]);
        let (out, spans) = run_machine_observed_channel(
            &c,
            FirstGood,
            0,
            ErrorModel::new(1.0, 1).into(),
            RetryPolicy::bounded(2),
        );
        assert!(out.abandoned);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        // Every read was corrupt, including the first and the abandoning one.
        assert_eq!(spans.get(Phase::Retry).count, u64::from(out.retries));
        assert_eq!(spans.get(Phase::InitialProbe).count, 0);
        assert_eq!(spans.get(Phase::DataRead).count, 0);
    }

    #[test]
    fn noop_and_observed_walks_agree() {
        let c = ch(&[10, 20, 30]);
        for tune_in in [0u64, 3, 17, 42] {
            let plain = run_machine_with_channel(
                &c,
                Scripted {
                    reads: 2,
                    doze: Some(20),
                    seen: vec![],
                },
                tune_in,
                ErrorModel::new(0.3, 9).into(),
                RetryPolicy::bounded(5),
            );
            let (observed, _) = run_machine_observed_channel(
                &c,
                Scripted {
                    reads: 2,
                    doze: Some(20),
                    seen: vec![],
                },
                tune_in,
                ErrorModel::new(0.3, 9).into(),
                RetryPolicy::bounded(5),
            );
            assert_eq!(plain, observed);
        }
    }

    /// Scans for the bucket whose payload equals `target`, with a
    /// fast-forward planner that bulk-skips non-matching buckets.
    struct SkipTo {
        target: usize,
        seen: u32,
    }

    impl ProtocolMachine<usize> for SkipTo {
        fn start(&mut self, _t: Ticks) -> Action {
            Action::ReadNext
        }
        fn on_bucket(&mut self, p: &usize, _m: BucketMeta) -> Action {
            self.seen += 1;
            if *p == self.target {
                Action::Finish(Verdict::found())
            } else {
                Action::ReadNext
            }
        }
        fn on_corrupt(&mut self, _m: BucketMeta) -> Action {
            Action::ReadNext
        }
        fn fast_forward(&mut self, ctx: &mut FastForward<'_, usize>) {
            loop {
                let run = ctx.run();
                let clean = ctx.clean(run.len(), 1);
                let n = run[..clean]
                    .iter()
                    .position(|b| b.payload == self.target)
                    .unwrap_or(clean);
                self.seen += n as u32;
                ctx.commit(n, 1, &[BucketKind::Data]);
                if n < clean || run.is_empty() || (clean < run.len() && !ctx.retry(self)) {
                    return;
                }
            }
        }
    }

    /// Step a span-recording walk to completion with fast-forward `ff`:
    /// `ff = false` is the bucket-by-bucket side of every differential
    /// test below. Also returns every step through `Done`.
    fn run_walk<P, M: ProtocolMachine<P>>(
        ch: &Channel<P>,
        machine: M,
        tune_in: Ticks,
        air: impl Into<ChannelModel>,
        policy: RetryPolicy,
        ff: bool,
    ) -> (AccessOutcome, PhaseSpans, Vec<WalkStep>) {
        let air: ChannelModel = air.into();
        let mut walk =
            Walk::with_channel_recorder(ch, machine, tune_in, air, policy, SpanRecorder::new());
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

    /// The start instants of the reads in a step trace, `size` giving each
    /// bucket's size.
    fn read_starts<'s>(
        steps: &'s [WalkStep],
        size: impl Fn(usize) -> u32 + 's,
    ) -> impl Iterator<Item = Ticks> + 's {
        steps.iter().filter_map(move |s| match *s {
            WalkStep::Read { bucket, until, .. } => Some(until - Ticks::from(size(bucket))),
            _ => None,
        })
    }

    /// The corrupted reads a step trace shows. A fast-forwarding walk
    /// shows fewer than the stepped walk when its planner recovered some
    /// inside a run.
    pub(crate) fn shown_retries(
        air: ChannelModel,
        steps: &[WalkStep],
        size: impl Fn(usize) -> u32,
    ) -> usize {
        read_starts(steps, size)
            .filter(|&t| air.corrupted(t))
            .count()
    }

    /// The longest run of consecutive outage reads a step trace shows.
    pub(crate) fn longest_outage_streak(
        air: ChannelModel,
        steps: &[WalkStep],
        size: impl Fn(usize) -> u32,
    ) -> u32 {
        read_starts(steps, size)
            .scan(0, |streak, t| {
                *streak = if air.in_outage(t) { *streak + 1 } else { 0 };
                Some(*streak)
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn fast_forward_is_tick_identical_and_collapses_steps() {
        // Tune-in 359 sits inside the cycle's last bucket, so the first run
        // ends at the cycle's end and the scan continues into the next. On
        // lossy air the planner recovers corrupted reads inside its run: up
        // to a retry-count give-up (`bounded(3)` at 30 % loss) or a
        // deadline give-up, under jittered exponential back-off, and
        // through outages several cycles long, whose reads back off in
        // streaks of two and more. Tune-ins within 24 cycles of
        // `Ticks::MAX` meet a 16-cycle back-off, which fast-forward folds
        // only where it ends at least four cycles short of the clock's end.
        let c = ch(&[10, 20, 30, 40, 50, 60, 70, 80]);
        let cycle = c.cycle_len();
        let burst = ChannelModel::burst(BurstModel::new(0.2, 0.3, 0.0, 0.9, 0xB57))
            .with_outages(OutageSchedule::new(200, 40, 0x12));
        let iid = |loss| ChannelModel::from(ErrorModel::new(loss, 0xC0FF));
        let long_outages = iid(0.1).with_outages(OutageSchedule::new(12 * cycle, 3 * cycle, 0x12));
        let jittered = RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x117);
        let early: Vec<Ticks> = [0, 5, 33, 359]
            .into_iter()
            .chain((1..24).map(|k| k * cycle + 33))
            .collect();
        let late: Vec<Ticks> = [24, 21, 19, 12, 6]
            .into_iter()
            .map(|k| Ticks::MAX - k * cycle + 33)
            .collect();
        let cases = [
            (ChannelModel::NONE, RetryPolicy::UNBOUNDED, &early),
            (iid(0.4), RetryPolicy::UNBOUNDED, &early),
            (burst, RetryPolicy::UNBOUNDED, &early),
            (iid(0.3), RetryPolicy::bounded(3), &early),
            (
                iid(0.3),
                RetryPolicy::UNBOUNDED.with_deadline(cycle),
                &early,
            ),
            (burst, jittered, &early),
            (long_outages, RetryPolicy::UNBOUNDED, &early),
            (burst, RetryPolicy::bounded(24).with_backoff(16), &late),
        ];
        for (air, policy, tune_ins) in cases {
            let (mut folded, mut abandoned, mut streak) = (0, 0, 0);
            for target in [0usize, 3, 7] {
                for &tune_in in tune_ins {
                    let what = format!("target={target} t={tune_in} {air:?} {policy:?}");
                    let skip = || SkipTo { target, seen: 0 };
                    let (slow, slow_spans, slow_steps) =
                        run_walk(&c, skip(), tune_in, air, policy, false);
                    let (fast, fast_spans, steps) =
                        run_walk(&c, skip(), tune_in, air, policy, true);
                    assert_eq!(slow, fast, "{what}");
                    assert_eq!(
                        slow_spans, fast_spans,
                        "span totals and counts match: {what}"
                    );
                    // The one-shot driver is the fast-forwarding walk.
                    assert_eq!(
                        run_machine_observed_channel(&c, skip(), tune_in, air, policy),
                        (fast, fast_spans)
                    );
                    if air.is_lossless() {
                        // One initial probe, at most one fast-forwarded
                        // landing read, one Done: O(1) steps regardless of
                        // how far away the target is.
                        assert!(steps.len() <= 3, "steps={}", steps.len());
                    }
                    let size = |i| c.bucket(i).size;
                    folded +=
                        shown_retries(air, &slow_steps, size) - shown_retries(air, &steps, size);
                    abandoned += usize::from(slow.abandoned);
                    streak = streak.max(longest_outage_streak(air, &slow_steps, size));
                }
            }
            if !air.is_lossless() {
                assert!(
                    folded > 0,
                    "{air:?} {policy:?}: a corrupted read must be folded"
                );
            }
            if policy.max_retries == Some(3) || policy.give_up_after.is_some() {
                assert!(abandoned > 0, "{policy:?}: some walk must give up");
            }
            if air == long_outages {
                assert!(streak >= 2, "outages must be read in streaks");
            }
        }
    }

    #[test]
    fn fast_forward_aborts_on_the_same_probe_as_the_slow_path() {
        struct NeverMatch;
        impl ProtocolMachine<usize> for NeverMatch {
            fn start(&mut self, _t: Ticks) -> Action {
                Action::ReadNext
            }
            fn on_bucket(&mut self, _p: &usize, _m: BucketMeta) -> Action {
                Action::ReadNext
            }
            fn fast_forward(&mut self, ctx: &mut FastForward<'_, usize>) {
                loop {
                    let run = ctx.run();
                    let n = ctx.clean(run.len(), 1);
                    ctx.commit(n, 1, &[BucketKind::Data]);
                    if n == 0 || n < run.len() {
                        return;
                    }
                }
            }
        }
        let c = ch(&[10, 20]);
        let (errors, policy) = (ErrorModel::NONE, RetryPolicy::UNBOUNDED);
        let (slow, _, _) = run_walk(&c, NeverMatch, 7, errors, policy, false);
        let (fast, _, _) = run_walk(&c, NeverMatch, 7, errors, policy, true);
        assert!(slow.aborted && fast.aborted);
        assert_eq!(slow, fast, "budget abort is tick-identical");
        assert_eq!(run_machine(&c, NeverMatch, 7), fast);
    }

    #[test]
    fn fast_forward_disengages_near_ticks_max() {
        // Within four cycles of the clock's end fast-forward must hand the
        // walk back to the (saturating) slow path untouched.
        let c = ch(&[10, 20, 30, 40]);
        let cycle = c.cycle_len();
        let (errors, policy) = (ErrorModel::NONE, RetryPolicy::UNBOUNDED);
        for t in [Ticks::MAX - 3 * cycle, Ticks::MAX - 4 * cycle + 1] {
            let skip = || SkipTo { target: 2, seen: 0 };
            let (slow, _, _) = run_walk(&c, skip(), t, errors, policy, false);
            let (fast, _, _) = run_walk(&c, skip(), t, errors, policy, true);
            assert!(slow.found);
            assert_eq!(slow, fast, "saturating clock behaviour is preserved");
            assert_eq!(run_machine(&c, skip(), t), fast);
        }
    }

    /// Every step of a walk, through `Done`.
    fn step_trace<M: ProtocolMachine<usize>>(
        c: &Channel<usize>,
        machine: M,
        tune_in: Ticks,
        air: ChannelModel,
        ff: bool,
    ) -> Vec<WalkStep> {
        let mut walk = Walk::with_channel_recorder(
            c,
            machine,
            tune_in,
            air,
            RetryPolicy::bounded(4),
            NoopRecorder,
        );
        walk.set_fast_forward(ff);
        let mut steps = Vec::new();
        loop {
            let step = walk.step();
            steps.push(step);
            if let WalkStep::Done(_) = step {
                return steps;
            }
        }
    }

    #[test]
    fn machines_without_a_planner_step_identically_with_fast_forward() {
        // With no planner the hook consumes nothing, so fast-forward must
        // hand the walk its landing bucket unchanged: every read, doze and
        // outcome identical, step for step. Tune-ins sit inside the cycle's
        // last bucket [30, 60), both early in the clock and within four
        // cycles of `Ticks::MAX` (where the hook disengages), plus one that
        // starts engaged and crosses into that zone mid-walk. Near the end
        // of the clock an outage back-off dozes the walk onto `Ticks::MAX`,
        // where reads end saturated and the walk still ends typed.
        let c = ch(&[10, 20, 30]);
        let cycle = c.cycle_len();
        let late = (Ticks::MAX / cycle - 3) * cycle;
        assert!(Ticks::MAX - late < 4 * cycle);
        let tune_ins = [
            31,
            45,
            59,
            5 * cycle + 44,
            late + 31,
            late + 59,
            late - cycle + 45,
            late - 2 * cycle + 45,
        ];
        let burst = ChannelModel::burst(BurstModel::new(0.2, 0.3, 0.0, 0.9, 0xB57))
            .with_outages(OutageSchedule::new(70, 10, 0x12));
        let typed =
            |steps: &[WalkStep]| matches!(steps.last(), Some(WalkStep::Done(o)) if !o.aborted);
        let mut saturated = 0;
        for t in tune_ins {
            for air in [
                ChannelModel::NONE,
                ErrorModel::new(0.3, 0x7A1C).into(),
                burst,
            ] {
                let scripted = || Scripted {
                    reads: 4,
                    doze: Some(20),
                    seen: vec![],
                };
                let slow = step_trace(&c, scripted(), t, air, false);
                assert!(slow.len() > 4, "t={t}: {slow:?}");
                assert_eq!(slow, step_trace(&c, scripted(), t, air, true), "t={t}");
                let first_good = step_trace(&c, FirstGood, t, air, false);
                assert_eq!(first_good, step_trace(&c, FirstGood, t, air, true), "t={t}");
                for steps in [slow, first_good] {
                    assert!(typed(&steps), "t={t}: {steps:?}");
                    saturated += steps
                        .iter()
                        .filter(|s| {
                            matches!(
                                s,
                                WalkStep::Read {
                                    until: Ticks::MAX,
                                    ..
                                }
                            )
                        })
                        .count();
                }
            }
        }
        assert!(saturated > 0, "some read must end saturated at Ticks::MAX");
    }

    #[test]
    fn policies_are_noops_on_lossless_channels() {
        let c = ch(&[10, 20, 30]);
        let plain = run_machine(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            5,
        );
        let strict = run_machine_with_channel(
            &c,
            Scripted {
                reads: 2,
                doze: Some(20),
                seen: vec![],
            },
            5,
            ChannelModel::NONE,
            RetryPolicy::bounded(0).with_backoff(3).with_deadline(1),
        );
        assert_eq!(plain, strict);
        assert!(!plain.abandoned);
    }
}
