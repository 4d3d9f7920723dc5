//! Error-prone channel model (extension).
//!
//! Real wireless broadcast is lossy; Lo & Chen (IEEE TKDE 2000, the paper's
//! reference \[9\]) study access methods "under an error-prone mobile
//! environment". This module adds the substrate for that line of work: a
//! deterministic per-bucket corruption model the walker can apply, with
//! per-scheme recovery via [`crate::ProtocolMachine::on_corrupt`].
//!
//! Corruption is a pure function of the bucket occurrence's absolute start
//! time and the model seed, so (a) runs are reproducible, (b) every client
//! listening to the same transmission sees the same corruption, and (c) the
//! *next* broadcast of the same bucket is drawn independently — exactly the
//! behaviour of per-transmission channel noise.
//!
//! Three failure processes compose behind [`ChannelModel`]:
//!
//! * [`ErrorModel`] — independent per-transmission loss (the original
//!   extension);
//! * [`BurstModel`] — a Gilbert–Elliott two-state Markov channel whose
//!   Good/Bad fading state correlates losses in time, computed by an exact
//!   coupling-from-the-past skip-ahead so the state at any instant is still
//!   a pure function of `(instant, seed)`;
//! * [`OutageSchedule`] — whole [start, start+len) spans where the carrier
//!   is gone entirely (handoffs, tunnels) and *every* bucket is unusable.
//!
//! Degenerate configurations are bit-identical to the simpler models they
//! collapse to: a burst channel with `loss_good == loss_bad` draws exactly
//! like the i.i.d. [`ErrorModel`] with that probability and seed, and a
//! [`ChannelModel`] with no outages and an i.i.d. loss component is the
//! plain [`ErrorModel`] path, byte for byte.
//!
//! Because every client of one transmission hears the same thing, the
//! clients of one slab-engine batch need to hear it only once: a walk
//! hears its home carrier through an [`Air`], which either asks the
//! [`ChannelModel`] on every read or reads a [`Heard`] memo of its answers
//! that the batch shares. The memo is exact — a hit returns what the model
//! returned for that very instant — so the two are bit-identical.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::Ticks;

/// The tag [`ErrorModel::corrupted`] mixes into its seed (kept stable so
/// all pre-burst corpora and tests reproduce exactly).
const LOSS_TAG: u64 = 0xE7F7_15D1;
/// Seed tag decorrelating the burst chain's per-tick transition draws from
/// the loss draws (which consume the untagged stream).
const CHAIN_TAG: u64 = 0x6E57_A7E5_0B5C_0DE5;
/// Seed tag for the chain's stationary initial-state draw at tick 0.
const INIT_TAG: u64 = 0x1217_BAD0_600D_BAD0;
/// Seed tag for outage-window jitter draws.
const OUTAGE_TAG: u64 = 0x0F7A_6E55_D07A_6E55;
/// Seed tag for retry back-off jitter draws.
const JITTER_TAG: u64 = 0xBAC0_FF00_BAC0_FF00;

/// SplitMix64 finalizer over `(x, seed ^ tag)`: the one stateless hash
/// every deterministic draw in this module is built from.
#[inline]
fn mix(x: u64, seed: u64, tag: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(seed ^ tag);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the top 53 bits of [`mix`].
#[inline]
fn uniform(x: u64, seed: u64, tag: u64) -> f64 {
    (mix(x, seed, tag) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Independent per-bucket corruption with a fixed loss probability.
///
/// ```
/// use bda_core::ErrorModel;
///
/// let m = ErrorModel::new(0.2, 42);
/// // Deterministic per transmission: the same broadcast instant always
/// // corrupts (or not) the same way.
/// assert_eq!(m.corrupted(1_000), m.corrupted(1_000));
/// assert!(!ErrorModel::NONE.corrupted(1_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorModel {
    /// Probability that any single bucket transmission is unusable.
    pub loss_prob: f64,
    /// Seed decorrelating different experiments.
    pub seed: u64,
}

impl ErrorModel {
    /// A lossless model (never corrupts).
    pub const NONE: ErrorModel = ErrorModel {
        loss_prob: 0.0,
        seed: 0,
    };

    /// A model losing each bucket independently with probability
    /// `loss_prob` (clamped to `\[0, 1\]`).
    pub fn new(loss_prob: f64, seed: u64) -> Self {
        ErrorModel {
            loss_prob: loss_prob.clamp(0.0, 1.0),
            seed,
        }
    }

    /// Whether the bucket transmission starting at absolute time `start` is
    /// corrupted.
    pub fn corrupted(&self, start: Ticks) -> bool {
        if self.loss_prob <= 0.0 {
            return false;
        }
        if self.loss_prob >= 1.0 {
            return true;
        }
        // Compare the top 53 bits against the probability.
        uniform(start, self.seed, LOSS_TAG) < self.loss_prob
    }
}

impl Default for ErrorModel {
    fn default() -> Self {
        ErrorModel::NONE
    }
}

/// Fading state of the Gilbert–Elliott chain at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainState {
    /// Clear channel: losses drawn at `loss_good`.
    Good,
    /// Deep fade: losses drawn at `loss_bad`.
    Bad,
}

impl ChainState {
    fn flipped(self, flip: bool) -> ChainState {
        match (self, flip) {
            (s, false) => s,
            (ChainState::Good, true) => ChainState::Bad,
            (ChainState::Bad, true) => ChainState::Good,
        }
    }
}

/// How one per-tick transition draw acts on the chain state under the
/// monotone coupling `f(Good) = Bad ⇔ u < p`, `f(Bad) = Good ⇔ u ≥ 1 − q`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepMap {
    /// Both states map to Bad (`u < min(p, 1−q)`).
    ConstBad,
    /// Both states map to Good (`u ≥ max(p, 1−q)`).
    ConstGood,
    /// State unchanged (`p ≤ u < 1−q`, only when `p + q ≤ 1`).
    Identity,
    /// States exchange (`1−q ≤ u < p`, only when `p + q > 1`).
    Swap,
}

/// Gilbert–Elliott two-state Markov burst channel.
///
/// The chain steps once per tick (byte): from `Good` it enters `Bad` with
/// probability `p_good_to_bad`, from `Bad` it returns with probability
/// `p_bad_to_good`. A bucket transmission starting at instant `t` is then
/// lost with the state-dependent probability (`loss_good` / `loss_bad`),
/// drawn with **the same hash the i.i.d. [`ErrorModel`] uses** — so a
/// degenerate burst channel with `loss_good == loss_bad == p` corrupts
/// *bit-identically* to `ErrorModel::new(p, seed)`.
///
/// [`BurstModel::state_at`] computes the state at an arbitrary instant by
/// an exact coupling-from-the-past skip-ahead instead of walking the chain
/// forward from tick 0: it scans *backward* through the per-tick coupled
/// transition maps and stops at the most recent coalescing (constant) map,
/// which determines the state regardless of anything earlier. Expected
/// work is `O(1 / (1 − |p + q − 1|))` hashes per query — independent of
/// `t` — and the result equals the naive forward walk *exactly* (a
/// property test pins `state_at ≡ state_at_naive`). Corruption therefore
/// stays a pure function of `(bucket instant, seed)`: the decision-9
/// purity that shard bit-identity, the fast-forward cursor's corruption
/// check ([`crate::FastForward::clean`]) and the engine's [`Heard`] memo
/// all require.
///
/// A step's map is constant with probability `1 − |p + q − 1|`, which
/// vanishes as both rates approach 0 or both approach 1, so nonzero
/// transition rates are clamped to `[1e-3, 1 − 1e-3]`: the backward
/// scan's expected length stays bounded (≤ ~1000 steps even for
/// near-static or near-periodic chains).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstModel {
    /// Per-tick probability of entering the Bad (fade) state.
    pub p_good_to_bad: f64,
    /// Per-tick probability of leaving the Bad state.
    pub p_bad_to_good: f64,
    /// Per-transmission loss probability while Good.
    pub loss_good: f64,
    /// Per-transmission loss probability while Bad.
    pub loss_bad: f64,
    /// Seed decorrelating experiments (shared by the chain and loss draws,
    /// under different tags).
    pub seed: u64,
}

/// Minimum nonzero transition rate, and distance of the largest from 1:
/// bounds the expected backward-scan length of [`BurstModel::state_at`] at
/// ~1000 hashes.
const MIN_RATE: f64 = 1e-3;

impl BurstModel {
    /// A burst channel. Probabilities are clamped to `[0, 1]`; nonzero
    /// transition rates are additionally kept within `1e-3` of 0 and of 1
    /// (see type docs).
    pub fn new(
        p_good_to_bad: f64,
        p_bad_to_good: f64,
        loss_good: f64,
        loss_bad: f64,
        seed: u64,
    ) -> Self {
        let clamp_rate = |r: f64| {
            let r = r.clamp(0.0, 1.0);
            if r > 0.0 {
                r.clamp(MIN_RATE, 1.0 - MIN_RATE)
            } else {
                r
            }
        };
        BurstModel {
            p_good_to_bad: clamp_rate(p_good_to_bad),
            p_bad_to_good: clamp_rate(p_bad_to_good),
            loss_good: loss_good.clamp(0.0, 1.0),
            loss_bad: loss_bad.clamp(0.0, 1.0),
            seed,
        }
    }

    /// The classic fade profile: near-perfect reception in Good state,
    /// heavy loss in Bad state.
    pub fn fading(p_good_to_bad: f64, p_bad_to_good: f64, seed: u64) -> Self {
        BurstModel::new(p_good_to_bad, p_bad_to_good, 0.01, 0.9, seed)
    }

    /// The coupled transition map for the draw at tick `i`.
    fn step_map(&self, i: Ticks) -> StepMap {
        let (p, q) = (self.p_good_to_bad, self.p_bad_to_good);
        let u = uniform(i, self.seed, CHAIN_TAG);
        if u < p.min(1.0 - q) {
            StepMap::ConstBad
        } else if u >= p.max(1.0 - q) {
            StepMap::ConstGood
        } else if p + q <= 1.0 {
            StepMap::Identity
        } else {
            StepMap::Swap
        }
    }

    /// Stationary probability of the Bad state, `p / (p + q)`.
    pub fn stationary_bad(&self) -> f64 {
        let (p, q) = (self.p_good_to_bad, self.p_bad_to_good);
        if p + q > 0.0 {
            p / (p + q)
        } else {
            0.0
        }
    }

    /// The chain's long-run mean loss rate,
    /// `(q·loss_good + p·loss_bad) / (p + q)` — what an i.i.d.
    /// [`ErrorModel`] must be configured with to match this channel's mean
    /// severity (the equal-mean-loss comparisons in EXPERIMENTS.md).
    pub fn stationary_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        (1.0 - pb) * self.loss_good + pb * self.loss_bad
    }

    /// The chain state at tick 0: a stationary draw, so the process is
    /// time-homogeneous from the very first tick.
    fn initial_state(&self) -> ChainState {
        if uniform(0, self.seed, INIT_TAG) < self.stationary_bad() {
            ChainState::Bad
        } else {
            ChainState::Good
        }
    }

    /// The fading state at instant `t`, by exact skip-ahead in
    /// O(1 / (1 − |p + q − 1|)) expected steps (see type docs). Equals
    /// [`BurstModel::state_at_naive`] for every `t`.
    pub fn state_at(&self, t: Ticks) -> ChainState {
        let (p, q) = (self.p_good_to_bad, self.p_bad_to_good);
        if p <= 0.0 && q <= 0.0 {
            // A frozen chain never leaves its initial state.
            return self.initial_state();
        }
        // Walk backward from the most recent transition, composing the
        // coupled maps. `flip` tracks whether the bijective suffix composed
        // so far is the identity or the swap; the first constant map met
        // pins the state.
        let mut flip = false;
        let mut i = t;
        while i > 0 {
            i -= 1;
            match self.step_map(i) {
                StepMap::ConstBad => return ChainState::Bad.flipped(flip),
                StepMap::ConstGood => return ChainState::Good.flipped(flip),
                StepMap::Identity => {}
                StepMap::Swap => flip = !flip,
            }
        }
        self.initial_state().flipped(flip)
    }

    /// The specification `state_at` is checked against: walk the chain
    /// forward one tick at a time from the stationary tick-0 draw. O(t) —
    /// for tests only.
    pub fn state_at_naive(&self, t: Ticks) -> ChainState {
        let mut s = self.initial_state();
        for i in 0..t {
            s = match self.step_map(i) {
                StepMap::ConstBad => ChainState::Bad,
                StepMap::ConstGood => ChainState::Good,
                StepMap::Identity => s,
                StepMap::Swap => s.flipped(true),
            };
        }
        s
    }

    /// Whether the bucket transmission starting at `start` is corrupted:
    /// the state-dependent loss probability, drawn with the i.i.d. model's
    /// exact hash so degenerate configs collapse bit-identically.
    pub fn corrupted(&self, start: Ticks) -> bool {
        let loss = match self.state_at(start) {
            ChainState::Good => self.loss_good,
            ChainState::Bad => self.loss_bad,
        };
        ErrorModel {
            loss_prob: loss,
            seed: self.seed,
        }
        .corrupted(start)
    }
}

/// Scheduled carrier outages: seeded, non-overlapping `[start, start+len)`
/// tick spans where every bucket transmission is unusable.
///
/// Construction is a jittered renewal grid: each frame `[k·every,
/// (k+1)·every)` contains exactly one outage of `len` ticks, placed at a
/// seeded uniform offset within the frame. Spans therefore never overlap
/// (each lives inside its own frame), the long-run outage fraction is
/// `len / every`, and membership is an O(1) pure function of `(t, seed)` —
/// the same purity contract as the loss models, so shard merge and
/// fast-forward hopping stay exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageSchedule {
    /// Renewal period (frame length) in ticks; `0` disables outages.
    pub every: Ticks,
    /// Outage length in ticks (≤ `every`); `0` disables outages.
    pub len: Ticks,
    /// Seed for the per-frame placement jitter.
    pub seed: u64,
}

impl OutageSchedule {
    /// No outages, ever.
    pub const NONE: OutageSchedule = OutageSchedule {
        every: 0,
        len: 0,
        seed: 0,
    };

    /// One `len`-tick outage per `every`-tick frame at a seeded offset.
    /// `len` is clamped to `every`; a zero `every` or `len` disables
    /// outages entirely.
    pub fn new(every: Ticks, len: Ticks, seed: u64) -> Self {
        if every == 0 || len == 0 {
            return OutageSchedule {
                every: 0,
                len: 0,
                seed,
            };
        }
        OutageSchedule {
            every,
            len: len.min(every),
            seed,
        }
    }

    /// Whether this schedule contains any outage at all.
    pub fn is_none(&self) -> bool {
        self.every == 0 || self.len == 0
    }

    /// The outage span of frame `k` as `(start, end)` absolute ticks.
    pub fn span(&self, k: Ticks) -> Option<(Ticks, Ticks)> {
        if self.is_none() {
            return None;
        }
        let slack = self.every - self.len;
        let jitter = if slack == 0 {
            0
        } else {
            mix(k, self.seed, OUTAGE_TAG) % (slack + 1)
        };
        let start = k.saturating_mul(self.every).saturating_add(jitter);
        Some((start, start.saturating_add(self.len)))
    }

    /// Whether instant `t` falls inside an outage.
    pub fn in_outage(&self, t: Ticks) -> bool {
        if self.is_none() {
            return false;
        }
        match self.span(t / self.every) {
            Some((start, end)) => t >= start && t < end,
            None => false,
        }
    }

    /// Long-run fraction of time spent in outage, `len / every`.
    pub fn fraction(&self) -> f64 {
        if self.is_none() {
            0.0
        } else {
            self.len as f64 / self.every as f64
        }
    }
}

impl Default for OutageSchedule {
    fn default() -> Self {
        OutageSchedule::NONE
    }
}

/// Which loss process corrupts individual transmissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-transmission loss (the original extension).
    Iid(ErrorModel),
    /// Correlated Gilbert–Elliott burst loss.
    Burst(BurstModel),
}

impl LossModel {
    /// Whether the transmission starting at `start` is corrupted.
    pub fn corrupted(&self, start: Ticks) -> bool {
        match self {
            LossModel::Iid(m) => m.corrupted(start),
            LossModel::Burst(m) => m.corrupted(start),
        }
    }

    /// The largest per-transmission loss probability this model can reach
    /// (used to scale walker probe budgets conservatively).
    pub fn worst_loss(&self) -> f64 {
        match self {
            LossModel::Iid(m) => m.loss_prob,
            LossModel::Burst(m) => m.loss_good.max(m.loss_bad),
        }
    }

    /// The long-run mean loss rate.
    pub fn mean_loss(&self) -> f64 {
        match self {
            LossModel::Iid(m) => m.loss_prob,
            LossModel::Burst(m) => m.stationary_loss(),
        }
    }
}

/// What a client receives of one bucket transmission
/// ([`ChannelModel::reception`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reception {
    /// The bucket arrived intact.
    Clean,
    /// The loss process dropped it on a live carrier (a CRC failure).
    Lost,
    /// It aired inside a scheduled outage: the carrier was gone.
    Outage,
}

/// The unified channel fault model every execution driver threads: a loss
/// process (i.i.d. or burst) composed with scheduled carrier outages.
///
/// A transmission is unusable when it starts inside an outage *or* the
/// loss process drops it. Degenerate configurations are free:
/// `ChannelModel::from(errors)` (i.i.d. loss, no outages) corrupts — and
/// therefore walks, schedules and accounts — bit-identically to the plain
/// [`ErrorModel`] path it replaces.
///
/// ```
/// use bda_core::{BurstModel, ChannelModel, ErrorModel, OutageSchedule};
///
/// // Degenerate: uniform-loss burst ≡ i.i.d. at the same seed.
/// let iid = ErrorModel::new(0.2, 7);
/// let flat_burst = ChannelModel::burst(BurstModel::new(0.05, 0.2, 0.2, 0.2, 7));
/// for t in (0..2_000u64).map(|i| i * 97) {
///     assert_eq!(flat_burst.corrupted(t), iid.corrupted(t));
/// }
/// // Outages corrupt every transmission inside their span.
/// let ch = ChannelModel::from(ErrorModel::NONE)
///     .with_outages(OutageSchedule::new(10_000, 500, 3));
/// assert!((0..10_000u64).any(|t| ch.corrupted(t)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelModel {
    /// Per-transmission loss process.
    pub loss: LossModel,
    /// Scheduled carrier outages.
    pub outages: OutageSchedule,
}

impl ChannelModel {
    /// A perfect channel: no loss, no outages.
    pub const NONE: ChannelModel = ChannelModel {
        loss: LossModel::Iid(ErrorModel::NONE),
        outages: OutageSchedule::NONE,
    };

    /// An i.i.d.-loss channel with no outages (the pre-burst model).
    pub fn iid(errors: ErrorModel) -> Self {
        ChannelModel {
            loss: LossModel::Iid(errors),
            outages: OutageSchedule::NONE,
        }
    }

    /// A burst-loss channel with no outages.
    pub fn burst(model: BurstModel) -> Self {
        ChannelModel {
            loss: LossModel::Burst(model),
            outages: OutageSchedule::NONE,
        }
    }

    /// Attach an outage schedule.
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = outages;
        self
    }

    /// Whether the bucket transmission starting at `start` is unusable
    /// (outage or loss).
    pub fn corrupted(&self, start: Ticks) -> bool {
        self.reception(start) != Reception::Clean
    }

    /// What the client receives of the bucket transmission starting at
    /// `start`: one evaluation of the outage schedule and, outside an
    /// outage, of the loss process. A walk reads both answers it needs
    /// from this, whether the read is usable and whether the carrier was
    /// gone.
    pub fn reception(&self, start: Ticks) -> Reception {
        if self.outages.in_outage(start) {
            Reception::Outage
        } else if self.loss.corrupted(start) {
            Reception::Lost
        } else {
            Reception::Clean
        }
    }

    /// Whether `start` falls inside a scheduled outage — the condition a
    /// resynchronizing client can *sense* (carrier gone) as opposed to a
    /// CRC failure on an otherwise live channel.
    pub fn in_outage(&self, start: Ticks) -> bool {
        self.outages.in_outage(start)
    }

    /// Whether this channel can corrupt anything at all.
    pub fn is_lossless(&self) -> bool {
        self.worst_loss() <= 0.0 && self.outages.is_none()
    }

    /// Whether this channel schedules outages.
    pub fn has_outages(&self) -> bool {
        !self.outages.is_none()
    }

    /// The largest per-transmission loss probability of the loss process
    /// (outages excluded) — the walker's budget-scaling input.
    pub fn worst_loss(&self) -> f64 {
        self.loss.worst_loss()
    }

    /// Long-run mean unusable-transmission rate (loss and outage combined,
    /// assuming independence).
    pub fn mean_loss(&self) -> f64 {
        let f = self.outages.fraction();
        f + (1.0 - f) * self.loss.mean_loss()
    }

    /// The plain [`ErrorModel`] this channel degenerates to, when it is
    /// exactly the pre-burst configuration (i.i.d. loss, no outages).
    pub fn as_iid(&self) -> Option<ErrorModel> {
        match (self.loss, self.outages.is_none()) {
            (LossModel::Iid(m), true) => Some(m),
            _ => None,
        }
    }
}

impl From<ErrorModel> for ChannelModel {
    fn from(errors: ErrorModel) -> Self {
        ChannelModel::iid(errors)
    }
}

impl Default for ChannelModel {
    fn default() -> Self {
        ChannelModel::NONE
    }
}

/// Words in a [`Heard`] memo: 2^16, 512 KiB. A constant, not a setting:
/// an engine steps its clients in time order, so most of their reads fall
/// near its clock. On a `churn-lossy` batch flat hits 0.979 of the time,
/// against 0.980 with one miss per distinct transmission; the integrated
/// and multilevel signatures, whose reads run further ahead of the clock,
/// hit 0.950 and 0.926 against 0.969 and 0.955 (0.880 and 0.872 with
/// 2^14 words).
const HEARD_BITS: u32 = 16;

/// Instants at or above 2^62 skip the memo: a word keeps its instant in
/// the upper 62 bits.
const HEARD_LIMIT: Ticks = 1 << 62;

/// A batch's memo of what its clients heard: for each transmission's start
/// instant it has been asked about, exactly what
/// [`ChannelModel::reception`] returned for that instant.
///
/// What a client receives of a transmission is a pure function of its
/// start instant (module docs), so every client tuned in hears the same
/// thing, and the memo hands the first client's answer to the others. A
/// hit returns the model's own answer, so a walk that reads through the
/// memo is bit-identical to one that asks the model.
///
/// The table is direct-mapped. One multiplicative hash of the instant picks
/// a word, and the word holds the instant shifted left by two with the
/// reception in the low two bits (0 is an empty word). A lookup hits only
/// when the stored instant equals the one asked about; a miss asks the
/// model and overwrites the word. Instants at or above 2^62 always ask the
/// model.
///
/// The words are atomics, loaded and stored relaxed without a lock, only so
/// that the shared handle (`Arc<Heard>`) is `Send`: each of a sharded
/// engine's shards owns a memo of its own, and its clients step on its
/// thread.
pub struct Heard {
    model: ChannelModel,
    words: Box<[AtomicU64]>,
    /// `64 − log2(words.len())`: the hash's top bits index the table.
    shift: u32,
}

impl Heard {
    /// An empty memo of `model`'s receptions.
    pub fn new(model: ChannelModel) -> Self {
        Heard::with_bits(model, HEARD_BITS)
    }

    /// An empty memo of `2^bits` words (`1 ≤ bits ≤ 32`).
    fn with_bits(model: ChannelModel, bits: u32) -> Self {
        debug_assert!((1..=32).contains(&bits));
        Heard {
            model,
            words: (0..1usize << bits).map(|_| AtomicU64::new(0)).collect(),
            shift: Ticks::BITS - bits,
        }
    }

    /// Forget every reception.
    pub fn clear(&self) {
        for word in self.words.iter() {
            word.store(0, Relaxed);
        }
    }

    /// The word instant `start` hashes to.
    #[inline]
    fn index(&self, start: Ticks) -> usize {
        (start.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// [`ChannelModel::reception`] at `start`, from the memo when a read
    /// of that transmission is remembered there.
    #[inline]
    pub(crate) fn reception(&self, start: Ticks) -> Reception {
        if start >= HEARD_LIMIT {
            return self.model.reception(start);
        }
        let word = &self.words[self.index(start)];
        let seen = word.load(Relaxed);
        if seen >> 2 == start && seen != 0 {
            return match seen & 3 {
                1 => Reception::Clean,
                2 => Reception::Lost,
                _ => Reception::Outage,
            };
        }
        let heard = self.model.reception(start);
        let code = match heard {
            Reception::Clean => 1,
            Reception::Lost => 2,
            Reception::Outage => 3,
        };
        word.store(start << 2 | code, Relaxed);
        heard
    }
}

impl fmt::Debug for Heard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heard")
            .field("model", &self.model)
            .field("words", &self.words.len())
            .finish()
    }
}

/// How a walk hears its home carrier: by asking the [`ChannelModel`] on
/// every read, or through the [`Heard`] memo the clients of one engine
/// batch share. Either way a read receives exactly what the model says.
#[derive(Debug, Clone)]
pub enum Air {
    /// Ask the model on every read: the direct walker, stand-alone slots
    /// and the reference engine.
    Model(ChannelModel),
    /// Read through a batch's memo of the model's answers.
    Heard(Arc<Heard>),
}

impl Air {
    /// The channel model this air answers with.
    pub(crate) fn model(&self) -> &ChannelModel {
        match self {
            Air::Model(model) => model,
            Air::Heard(heard) => &heard.model,
        }
    }

    /// What a client receives of the transmission starting at `start`:
    /// [`ChannelModel::reception`], read through the memo when there is
    /// one.
    #[inline]
    pub(crate) fn reception(&self, start: Ticks) -> Reception {
        match self {
            Air::Model(model) => model.reception(start),
            Air::Heard(heard) => heard.reception(start),
        }
    }
}

impl From<ChannelModel> for Air {
    fn from(model: ChannelModel) -> Self {
        Air::Model(model)
    }
}

/// Client-side robustness policy for error-prone channels: how long a
/// client keeps recovering from corrupted bucket reads before giving up,
/// and how far it backs off between attempts.
///
/// The walker consults the policy **only at corrupt reads** — on a
/// lossless channel (or any run that happens to see no corruption) every
/// policy is a no-op, so [`RetryPolicy::default`] over [`ErrorModel::NONE`]
/// is bit-identical to the policy-free walker. When the policy gives up
/// the query ends truthfully with [`crate::AccessOutcome::abandoned`] set:
/// the client reports "I stopped trying", never a wrong answer.
///
/// Back-off comes in two flavours. The legacy fixed back-off
/// (`backoff_cycles`, `backoff_cap_cycles == 0`) dozes the same number of
/// whole cycles after every corrupted read. Setting `backoff_cap_cycles`
/// switches to exponential back-off: the doze doubles per consecutive
/// recovery, capped there. A `jitter_seed` decorrelates co-tuned clients
/// by replacing each doze with a seeded uniform draw in `[1, doze]` whole
/// cycles — deterministic per `(seed, attempt)`, so runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Corrupted reads tolerated before abandoning; `None` retries
    /// forever (the default — queries on a loss < 1 channel eventually
    /// succeed).
    pub max_retries: Option<u32>,
    /// Whole broadcast cycles to doze after each corrupted read before
    /// resuming (back-off). `0` (default) resumes immediately; `1` waits
    /// for the same channel position in the next cycle, trading access
    /// time for tuning time under bursty interference.
    pub backoff_cycles: u32,
    /// Exponential back-off cap in whole cycles. `0` (default) keeps the
    /// legacy fixed back-off; any positive value makes the per-recovery
    /// doze double from `max(backoff_cycles, 1)` up to this cap.
    pub backoff_cap_cycles: u32,
    /// Deterministic back-off jitter seed. `None` (default) dozes the full
    /// back-off; `Some(seed)` dozes a seeded uniform number of cycles in
    /// `[1, backoff]` instead (full jitter), deterministic per
    /// `(seed, attempt)`.
    pub jitter_seed: Option<u64>,
    /// Abandon at the first corrupted read once this much access time
    /// (bytes since tune-in) has elapsed. `None` (default) never
    /// deadline-abandons.
    pub give_up_after: Option<Ticks>,
}

/// Default exponential-back-off cap (whole cycles) applied to outage
/// resynchronization when the policy does not set its own cap.
const OUTAGE_CAP_CYCLES: u32 = 16;

impl RetryPolicy {
    /// Retry forever, immediately — the implicit policy of every walker
    /// before fault injection grew a policy knob.
    pub const UNBOUNDED: RetryPolicy = RetryPolicy {
        max_retries: None,
        backoff_cycles: 0,
        backoff_cap_cycles: 0,
        jitter_seed: None,
        give_up_after: None,
    };

    /// Tolerate at most `n` corrupted reads, then abandon.
    pub fn bounded(n: u32) -> Self {
        RetryPolicy {
            max_retries: Some(n),
            ..RetryPolicy::UNBOUNDED
        }
    }

    /// Add a next-cycle back-off of `cycles` whole cycles per retry.
    pub fn with_backoff(mut self, cycles: u32) -> Self {
        self.backoff_cycles = cycles;
        self
    }

    /// Switch to exponential back-off: the per-recovery doze doubles from
    /// `max(backoff_cycles, 1)` up to `cap` whole cycles.
    pub fn with_backoff_cap(mut self, cap: u32) -> Self {
        self.backoff_cap_cycles = cap;
        self
    }

    /// Add deterministic full jitter to every back-off doze.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Add a give-up deadline of `ticks` bytes of access time.
    pub fn with_deadline(mut self, ticks: Ticks) -> Self {
        self.give_up_after = Some(ticks);
        self
    }

    /// Whether a client that has now seen `retries` corrupted reads and
    /// spent `elapsed` bytes of access time should abandon the query.
    pub fn gives_up(&self, retries: u32, elapsed: Ticks) -> bool {
        self.max_retries.is_some_and(|m| retries > m)
            || self.give_up_after.is_some_and(|d| elapsed >= d)
    }

    /// Un-jittered back-off for the `attempt`-th recovery (1-based):
    /// fixed under the legacy policy, doubling-capped when
    /// `backoff_cap_cycles` is set.
    fn backoff_base(&self, attempt: u32) -> u32 {
        if self.backoff_cap_cycles == 0 {
            return self.backoff_cycles;
        }
        let start = self.backoff_cycles.max(1);
        start
            .checked_shl(attempt.saturating_sub(1).min(31))
            .unwrap_or(u32::MAX)
            .min(self.backoff_cap_cycles)
    }

    /// Whole cycles to doze before the next attempt, after the
    /// `attempt`-th consecutive recovery (1-based).
    ///
    /// `outage` selects the resynchronization path: a client that *senses*
    /// carrier loss must not burn retries one bucket at a time, so the
    /// doze is at least one cycle and grows exponentially with the
    /// consecutive-outage streak (capped at `backoff_cap_cycles`, or 16
    /// when unset) even under a zero-back-off policy. With `outage =
    /// false` and the legacy knobs (`backoff_cap_cycles == 0`, no jitter)
    /// this is exactly `backoff_cycles` — the pre-burst behaviour.
    ///
    /// Deterministic per `(policy, attempt)`: jitter draws are a pure
    /// function of `(jitter_seed, attempt)`.
    pub fn recovery_cycles(&self, attempt: u32, outage: bool) -> u32 {
        let mut cycles = self.backoff_base(attempt);
        if outage {
            let cap = if self.backoff_cap_cycles > 0 {
                self.backoff_cap_cycles
            } else {
                OUTAGE_CAP_CYCLES
            };
            let exp = 1u32
                .checked_shl(attempt.saturating_sub(1).min(31))
                .unwrap_or(u32::MAX)
                .min(cap);
            cycles = cycles.max(exp).max(1);
        }
        if cycles == 0 {
            return 0;
        }
        match self.jitter_seed {
            None => cycles,
            Some(seed) => {
                1 + (mix(u64::from(attempt), seed, JITTER_TAG) % u64::from(cycles)) as u32
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::UNBOUNDED
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extremes() {
        let none = ErrorModel::NONE;
        let all = ErrorModel::new(1.0, 1);
        for t in 0..100u64 {
            assert!(!none.corrupted(t * 17));
            assert!(all.corrupted(t * 17));
        }
    }

    #[test]
    fn deterministic_per_transmission() {
        let m = ErrorModel::new(0.3, 42);
        for t in 0..200u64 {
            assert_eq!(m.corrupted(t * 531), m.corrupted(t * 531));
        }
    }

    #[test]
    fn rate_is_respected() {
        let m = ErrorModel::new(0.25, 7);
        let lost = (0..100_000u64).filter(|&i| m.corrupted(i * 533)).count();
        let rate = lost as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn different_seeds_decorrelate() {
        let a = ErrorModel::new(0.5, 1);
        let b = ErrorModel::new(0.5, 2);
        let agree = (0..10_000u64)
            .filter(|&i| a.corrupted(i * 533) == b.corrupted(i * 533))
            .count();
        // Independent draws agree ~50 % of the time at p = 0.5.
        assert!((4_500..5_500).contains(&agree), "agree={agree}");
    }

    #[test]
    fn clamping() {
        assert_eq!(ErrorModel::new(-3.0, 0).loss_prob, 0.0);
        assert_eq!(ErrorModel::new(7.0, 0).loss_prob, 1.0);
    }

    #[test]
    fn unbounded_policy_never_gives_up() {
        let p = RetryPolicy::default();
        assert_eq!(p, RetryPolicy::UNBOUNDED);
        assert!(!p.gives_up(u32::MAX, Ticks::MAX));
    }

    #[test]
    fn bounded_policy_gives_up_past_the_budget() {
        let p = RetryPolicy::bounded(2);
        assert!(!p.gives_up(1, 0));
        assert!(!p.gives_up(2, 0));
        assert!(p.gives_up(3, 0));
        // bounded(0) abandons at the very first corrupt read.
        assert!(RetryPolicy::bounded(0).gives_up(1, 0));
    }

    #[test]
    fn deadline_policy_gives_up_on_elapsed_time() {
        let p = RetryPolicy::default().with_deadline(1_000);
        assert!(!p.gives_up(50, 999));
        assert!(p.gives_up(1, 1_000));
    }

    #[test]
    fn backoff_builder_sets_cycles() {
        assert_eq!(RetryPolicy::bounded(4).with_backoff(2).backoff_cycles, 2);
    }

    #[test]
    fn legacy_backoff_is_fixed_per_attempt() {
        let p = RetryPolicy::bounded(9).with_backoff(3);
        for attempt in 1..20 {
            assert_eq!(p.recovery_cycles(attempt, false), 3);
        }
        // Zero back-off stays zero on the loss path.
        assert_eq!(RetryPolicy::UNBOUNDED.recovery_cycles(5, false), 0);
    }

    #[test]
    fn exponential_backoff_doubles_to_the_cap() {
        let p = RetryPolicy::UNBOUNDED.with_backoff(1).with_backoff_cap(8);
        let seq: Vec<u32> = (1..=6).map(|a| p.recovery_cycles(a, false)).collect();
        assert_eq!(seq, vec![1, 2, 4, 8, 8, 8]);
        // Zero-base exponential starts at 1.
        let z = RetryPolicy::UNBOUNDED.with_backoff_cap(4);
        let seq: Vec<u32> = (1..=4).map(|a| z.recovery_cycles(a, false)).collect();
        assert_eq!(seq, vec![1, 2, 4, 4]);
    }

    #[test]
    fn outage_backoff_is_exponential_even_without_a_policy_backoff() {
        let p = RetryPolicy::UNBOUNDED;
        let seq: Vec<u32> = (1..=7).map(|a| p.recovery_cycles(a, true)).collect();
        assert_eq!(seq, vec![1, 2, 4, 8, 16, 16, 16]);
        // A policy cap bounds the outage doze too.
        let capped = RetryPolicy::UNBOUNDED.with_backoff_cap(4);
        assert_eq!(capped.recovery_cycles(6, true), 4);
    }

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        let p = RetryPolicy::UNBOUNDED
            .with_backoff(1)
            .with_backoff_cap(16)
            .with_jitter(0x7E57);
        for attempt in 1..=10u32 {
            let a = p.recovery_cycles(attempt, false);
            let b = p.recovery_cycles(attempt, false);
            assert_eq!(a, b, "jitter must be deterministic per (seed, attempt)");
            let base = RetryPolicy::UNBOUNDED
                .with_backoff(1)
                .with_backoff_cap(16)
                .recovery_cycles(attempt, false);
            assert!(
                (1..=base).contains(&a),
                "attempt {attempt}: {a} not in [1, {base}]"
            );
        }
        // Different seeds draw different jitter somewhere in the range.
        let other = p.with_jitter(0x7E58);
        assert!(
            (1..=32u32).any(|a| p.recovery_cycles(a, false) != other.recovery_cycles(a, false)),
            "jitter seeds fully correlated"
        );
        // Jitter never turns a zero back-off into a doze.
        assert_eq!(
            RetryPolicy::UNBOUNDED
                .with_jitter(1)
                .recovery_cycles(3, false),
            0
        );
    }

    #[test]
    fn burst_degenerate_uniform_loss_matches_iid_exactly() {
        let iid = ErrorModel::new(0.3, 99);
        let burst = BurstModel::new(0.05, 0.1, 0.3, 0.3, 99);
        for i in 0..5_000u64 {
            let t = i * 157;
            assert_eq!(burst.corrupted(t), iid.corrupted(t), "t={t}");
        }
    }

    #[test]
    fn skip_ahead_matches_naive_walk() {
        let rates = [
            (0.01, 0.05),
            (0.2, 0.3),
            (0.9, 0.8),
            (0.0, 0.5),
            (0.5, 0.0),
            (1.0, 1.0),
        ];
        for (p, q) in rates {
            let m = BurstModel::new(p, q, 0.0, 1.0, 0xB0B);
            for t in [0u64, 1, 2, 3, 17, 100, 999, 4_096] {
                assert_eq!(m.state_at(t), m.state_at_naive(t), "p={p} q={q} t={t}");
            }
            // Far past where a walk from tick 0 can go, each state follows
            // from the one before it by that tick's map.
            let far = 1u64 << 40;
            let mut s = m.state_at(far);
            for t in far..far + 64 {
                s = match m.step_map(t) {
                    StepMap::ConstBad => ChainState::Bad,
                    StepMap::ConstGood => ChainState::Good,
                    StepMap::Identity => s,
                    StepMap::Swap => s.flipped(true),
                };
                assert_eq!(m.state_at(t + 1), s, "p={p} q={q} t={}", t + 1);
            }
        }
    }

    #[test]
    fn burst_states_persist() {
        // A slow chain (p=q=0.01) must produce long same-state runs: the
        // expected sojourn is 100 ticks, so over 10k ticks sampled every
        // tick there are far fewer state changes than a fast chain's.
        let slow = BurstModel::new(0.01, 0.01, 0.0, 1.0, 5);
        let changes = (1..5_000u64)
            .filter(|&t| slow.state_at(t) != slow.state_at(t - 1))
            .count();
        assert!(changes < 200, "slow chain changed {changes} times");
        assert!(changes > 5, "chain never moved");
    }

    #[test]
    fn stationary_loss_closed_form() {
        let m = BurstModel::new(0.1, 0.3, 0.02, 0.5, 1);
        let expect = (0.3 * 0.02 + 0.1 * 0.5) / (0.1 + 0.3);
        assert!((m.stationary_loss() - expect).abs() < 1e-12);
        // Frozen chain: stationary loss is the Good-state loss.
        let frozen = BurstModel::new(0.0, 0.0, 0.07, 0.9, 1);
        assert!((frozen.stationary_loss() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn rate_floor_clamps_tiny_rates() {
        let m = BurstModel::new(1e-9, 0.0, 0.1, 0.9, 1);
        assert_eq!(m.p_good_to_bad, MIN_RATE);
        assert_eq!(m.p_bad_to_good, 0.0);
        // Rates at or near 1 stay as far from it, so a backward scan still
        // meets a constant map within about a thousand ticks.
        let m = BurstModel::new(1.0, 1.0 - 1e-9, 0.1, 0.9, 1);
        assert_eq!(m.p_good_to_bad, 1.0 - MIN_RATE);
        assert_eq!(m.p_bad_to_good, 1.0 - MIN_RATE);
    }

    #[test]
    fn outage_spans_live_in_their_frames_and_never_overlap() {
        let o = OutageSchedule::new(1_000, 200, 42);
        let mut prev_end = 0;
        for k in 0..200u64 {
            let (start, end) = o.span(k).unwrap();
            assert!(start >= k * 1_000);
            assert!(end <= (k + 1) * 1_000);
            assert!(start >= prev_end, "span {k} overlaps previous");
            prev_end = end;
            // Membership agrees with the span arithmetic.
            assert!(o.in_outage(start));
            assert!(o.in_outage(end - 1));
            assert!(!o.in_outage(end));
        }
    }

    #[test]
    fn outage_none_and_degenerate_configs_disable() {
        assert!(!OutageSchedule::NONE.in_outage(0));
        assert!(OutageSchedule::new(0, 10, 1).is_none());
        assert!(OutageSchedule::new(10, 0, 1).is_none());
        // len > every clamps to a full-frame outage.
        let full = OutageSchedule::new(10, 50, 1);
        assert_eq!(full.len, 10);
        assert!((0..100u64).all(|t| full.in_outage(t)));
    }

    #[test]
    fn channel_model_composes_outage_and_loss() {
        let ch = ChannelModel::iid(ErrorModel::new(0.1, 3))
            .with_outages(OutageSchedule::new(5_000, 500, 9));
        let (start, end) = ch.outages.span(2).unwrap();
        for t in start..end {
            assert!(ch.corrupted(t), "outage bucket usable at {t}");
            assert!(ch.in_outage(t));
        }
        assert!(ch.has_outages());
        assert!(!ch.is_lossless());
        assert!(ch.as_iid().is_none(), "outages are not degenerate");
        // Degenerate: iid loss, no outages.
        let degen = ChannelModel::iid(ErrorModel::new(0.1, 3));
        assert_eq!(degen.as_iid(), Some(ErrorModel::new(0.1, 3)));
        assert_eq!(ChannelModel::from(ErrorModel::NONE), ChannelModel::NONE);
        assert!(ChannelModel::NONE.is_lossless());
    }

    #[test]
    fn channel_mean_loss_accounts_for_both_processes() {
        let ch = ChannelModel::iid(ErrorModel::new(0.1, 3))
            .with_outages(OutageSchedule::new(1_000, 100, 9));
        // 10 % outage + 90 % · 10 % loss.
        assert!((ch.mean_loss() - (0.1 + 0.9 * 0.1)).abs() < 1e-12);
    }

    /// The memo against the bare model over random sequences of instants,
    /// with a clear before each: the same reception on every read. Each
    /// sequence first reads the edge instants (0 on an empty word, the
    /// last instant a word can hold and the first it cannot), then instants
    /// that collide in one word — in a two-word table, or in the engine's
    /// table at the instants sharing instant 0's word — and instants
    /// anywhere, repeats of recent ones among them, so most reads are hits.
    #[test]
    fn heard_memo_answers_what_the_model_does() {
        let burst = ChannelModel::burst(BurstModel::new(0.04, 0.2, 0.0, 0.9, 0xB57))
            .with_outages(OutageSchedule::new(3_000, 300, 0x0A7));
        let iid = ChannelModel::iid(ErrorModel::new(0.3, 0x11D));
        let outage_only = ChannelModel::NONE.with_outages(OutageSchedule::new(1_000, 250, 0x0FF));
        let edges = [0, HEARD_LIMIT - 1, HEARD_LIMIT, Ticks::MAX];
        let table = Heard::new(ChannelModel::NONE);
        let shared: Vec<Ticks> = (0..1 << 24)
            .filter(|&t| table.index(t) == table.index(0))
            .collect();
        assert!(shared.len() > 100, "{} instants share word 0", shared.len());
        for (model, kinds) in [
            (burst, [true, true, true]),
            (iid, [true, true, false]),
            (outage_only, [true, false, true]),
        ] {
            let mut seen = [false; 3];
            for bits in [1, HEARD_BITS] {
                let heard = Heard::with_bits(model, bits);
                let mut recent = [0 as Ticks; 8];
                for seq in 0..64u64 {
                    heard.clear();
                    for i in 0..512u64 {
                        let r = mix(seq << 16 | i, bits.into(), 0x0E4D);
                        let t = if i < edges.len() as u64 {
                            edges[i as usize]
                        } else {
                            match r % 6 {
                                0 => shared[(r >> 8) as usize % shared.len()],
                                1 => (r >> 8) % 20_000,
                                2 => r >> 2,
                                3 => r | HEARD_LIMIT,
                                _ => recent[(r >> 8) as usize % recent.len()],
                            }
                        };
                        recent[i as usize % recent.len()] = t;
                        let want = model.reception(t);
                        assert_eq!(heard.reception(t), want, "{model:?} at {t}");
                        seen[want as usize] = true;
                    }
                }
            }
            assert_eq!(seen, kinds, "receptions heard under {model:?}");
        }
    }
}
