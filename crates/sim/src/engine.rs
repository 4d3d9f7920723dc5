//! The discrete-event core: arrivals and client wake-ups in global time
//! order.
//!
//! Every broadcast of a bucket, every request arrival and every client
//! wake-up is an event; clients advance through their access protocol one
//! [`WalkStep`] at a time, so at any simulated instant the engine knows
//! exactly which clients are listening, dozing or done — the paper's
//! "broadcasting of each data item, generation of each user request and
//! processing of the request are all considered to be separate events …
//! handled independently" (§3).
//!
//! # Architecture
//!
//! The engine scales to very large concurrent client populations through
//! two structural choices (see DESIGN.md, "Discrete-event engine"):
//!
//! * **Slab-backed client arena.** Clients live in reusable
//!   [`QuerySlot`]s held in a slab (`Vec` + free list). A slot is
//!   allocated once per *concurrent client*, then re-armed for each new
//!   request — at steady state the engine performs no per-request heap
//!   allocation, where the reference oracle boxes a fresh slot per
//!   request. An idle engine hands its slots out in id order, so request
//!   *i* of a time-ordered batch steps slot *i*, and a slot is first
//!   touched when its request arrives.
//! * **Bucket-aligned wakeup scheduler.** After its first step a client
//!   only ever wakes at a bucket boundary of the one shared broadcast
//!   cycle, so pending wake-ups collapse onto few distinct instants. The
//!   scheduler batches all clients waking at the same instant behind a
//!   single entry per *distinct time*, found by a hash map and ordered by
//!   a radix heap: scheduler traffic is `O(distinct boundaries)` instead
//!   of `O(clients)`, and every batch is stepped together in one
//!   cache-friendly sweep.
//!
//! Its clients also hear each transmission once per batch. What a client
//! receives of a bucket is a pure function of the bucket's start instant,
//! so over lossy air an engine keeps one [`Heard`] memo of the channel
//! model's answers, emptied at the start of every batch, and every slot it
//! makes reads its home carrier through it: the first client to read a
//! transmission asks the model, and the others read its answer. The memo
//! is exact, so outcomes are bit-identical to asking the model.
//!
//! The naive heap engine this replaces is preserved as
//! [`reference::run_requests_reference_channel`] — the oracle the
//! property suite checks the slab engine against. It, like the direct
//! walker, asks the model on every read.
//!
//! An engine is built over the air its clients see — [`Engine::new`]
//! (lossless) or [`Engine::with_channel`] (a [`ChannelModel`] and a
//! [`RetryPolicy`]) — and configured before its first batch:
//! [`Engine::set_fast_forward`], [`Engine::enable_metrics`] or
//! [`Engine::enable_metrics_windowed`]. [`Engine::run_batch`] then runs
//! requests, and [`Engine::take_metrics`] detaches what was observed.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use bda_core::{
    AccessOutcome, Air, ChannelModel, DynSystem, Heard, Key, QuerySlot, RetryPolicy, Ticks,
    WalkStep,
};
use bda_obs::{Completion, Gauge, MetricsHub, WindowSpec};

/// One completed request with its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Arrival (tune-in) time of the request.
    pub arrival: Ticks,
    /// The key that was queried.
    pub key: Key,
    /// Protocol outcome.
    pub outcome: AccessOutcome,
}

/// Engine-level counters, for throughput tracking and the perf harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Walker steps processed (reads + dozes + completions).
    pub events: u64,
    /// Wake-up batches drained — each batch is one distinct simulated
    /// instant; `events / wake_batches` is the mean batching factor the
    /// bucket-aligned scheduler achieved.
    pub wake_batches: u64,
    /// Maximum number of clients simultaneously in flight (tuned in but
    /// not yet finished).
    pub peak_in_flight: usize,
    /// Requests completed.
    pub completed: u64,
    /// Corrupted bucket transmissions clients recovered from (or abandoned
    /// at) across all completed requests — always 0 on a lossless channel.
    pub corrupt_reads: u64,
    /// Requests whose [`RetryPolicy`] gave up (truthful
    /// [`AccessOutcome::abandoned`] outcomes; always 0 under
    /// [`RetryPolicy::UNBOUNDED`]).
    pub abandoned: u64,
    /// Stale-machine restarts across all completed requests: times a walk
    /// discarded its protocol machine and re-anchored on the live broadcast
    /// program after detecting version skew. Always 0 on a frozen channel.
    pub stale_restarts: u64,
    /// Version-skewed buckets observed across all completed requests
    /// (`>= stale_restarts`; always 0 on a frozen channel).
    pub version_skews: u64,
}

impl EngineStats {
    /// Fold another engine's counters into this one — how the sharded
    /// engine aggregates per-shard stats.
    ///
    /// All counters sum. For the per-request counters (see
    /// [`EngineStats::outcome_counters`]) the sum is exact and invariant
    /// under sharding. `wake_batches` sums to the total number of distinct
    /// wake instants drained *somewhere* (shards keep independent
    /// schedulers, so this exceeds the single-engine figure when
    /// simultaneous instants land on different shards), and
    /// `peak_in_flight` sums because shard populations coexist in
    /// simulated time — the merged value is the exact aggregate peak when
    /// every shard peaks at the same simulated instant and an upper bound
    /// otherwise.
    pub fn merge(&mut self, other: &EngineStats) {
        self.events += other.events;
        self.wake_batches += other.wake_batches;
        self.peak_in_flight += other.peak_in_flight;
        self.completed += other.completed;
        self.corrupt_reads += other.corrupt_reads;
        self.abandoned += other.abandoned;
        self.stale_restarts += other.stale_restarts;
        self.version_skews += other.version_skews;
    }

    /// The projection of these counters that is **invariant under
    /// sharding**: `[events, completed, corrupt_reads, abandoned,
    /// stale_restarts, version_skews]`.
    ///
    /// Each is a sum of per-request quantities, and on a broadcast channel
    /// every request's walk is independent of scheduling — so for any
    /// partition of a batch, the per-shard values sum to exactly the
    /// single-engine values. `wake_batches` and `peak_in_flight` describe
    /// scheduler *shape* (how clients happened to batch and overlap) and
    /// are deliberately excluded; the conformance matrix pins
    /// this projection bit-for-bit across shard counts.
    pub fn outcome_counters(&self) -> [u64; 6] {
        [
            self.events,
            self.completed,
            self.corrupt_reads,
            self.abandoned,
            self.stale_restarts,
            self.version_skews,
        ]
    }
}

/// Batching wake-up scheduler.
///
/// All post-arrival wake times are bucket boundaries of the shared cycle,
/// so at any moment the set of pending wake *times* is small (bounded by
/// the boundaries of roughly one cycle plus pending arrival instants)
/// even when the set of pending *clients* is huge. A hash map from each
/// distinct pending instant holds the ends of its FIFO list of waking
/// clients, threaded through one link per client slot: a client waits at
/// one instant at a time, so its link is free for the next list as soon
/// as its batch is drained. The instants themselves wait in a radix heap
/// (Ahuja, Mehlhorn, Orlin & Tarjan, 1990): no client wakes before the
/// instant being drained, so the heap only ever pops its least instant,
/// and an instant moves between its 65 buckets at most once per bit.
/// Memory is the map and heap of pending instants (capacity kept for the
/// next batch) plus one link per slot, whatever the batches before.
#[derive(Debug)]
struct WakeupScheduler {
    /// First and last client waiting per distinct instant.
    waiters: HashMap<Ticks, (u32, u32), BuildHasherDefault<InstantHasher>>,
    /// The pending instants by their highest bit that differs from
    /// `origin`: `heap[0]` holds `origin` itself, `heap[b]` those whose
    /// highest differing bit is bit `b − 1`.
    heap: [Vec<Ticks>; 65],
    /// Bit `b` set while `heap[b]` holds an instant.
    occupied: u128,
    /// The instant drained last, which no pending instant precedes; 0
    /// once the scheduler drains, so unsorted arrivals stay ordered.
    origin: Ticks,
    /// `next[c]`: the client after `c` in its instant's list (stale at
    /// the list's last client). Parallel to the slot slab.
    next: Vec<u32>,
}

impl Default for WakeupScheduler {
    fn default() -> Self {
        WakeupScheduler {
            waiters: HashMap::default(),
            heap: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            origin: 0,
            next: Vec::new(),
        }
    }
}

impl WakeupScheduler {
    fn schedule(&mut self, t: Ticks, client: u32) {
        if self.next.len() <= client as usize {
            self.next.resize(client as usize + 1, 0);
        }
        if self.waiters.is_empty() {
            self.origin = 0;
        }
        debug_assert!(t >= self.origin, "wake-up at {t} before {}", self.origin);
        match self.waiters.entry(t) {
            Entry::Vacant(list) => {
                list.insert((client, client));
                self.push(t);
            }
            Entry::Occupied(mut list) => {
                let last = &mut list.get_mut().1;
                self.next[*last as usize] = client;
                *last = client;
            }
        }
    }

    /// File pending instant `t` (not before `origin`) in its heap bucket.
    fn push(&mut self, t: Ticks) {
        let b = (Ticks::BITS - (t ^ self.origin).leading_zeros()) as usize;
        self.heap[b].push(t);
        self.occupied |= 1 << b;
    }

    /// Remove the earliest instant and return it with the first and last
    /// client of its list; [`WakeupScheduler::next`] walks the list.
    fn pop_batch(&mut self) -> Option<(Ticks, (u32, u32))> {
        if self.occupied == 0 {
            return None;
        }
        let b = self.occupied.trailing_zeros() as usize;
        if b > 0 {
            // Move the origin to the lowest bucket's least instant. Every
            // instant there shares its bits from `b − 1` up with the new
            // origin, so each refiles into a lower bucket, the least into
            // `heap[0]`; the other buckets keep their instants.
            let mut spill = std::mem::take(&mut self.heap[b]);
            self.occupied &= !(1 << b);
            self.origin = *spill.iter().min().expect("an occupied bucket");
            for &t in &spill {
                self.push(t);
            }
            spill.clear();
            self.heap[b] = spill;
        }
        // Instants are distinct, so `heap[0]` holds just the origin.
        let t = self.heap[0].pop().expect("the origin is pending");
        self.occupied &= !1;
        let list = self
            .waiters
            .remove(&t)
            .expect("a pending instant has a list");
        Some((t, list))
    }

    /// The client after `client` in a popped list. Read it before
    /// stepping `client`, whose next wake-up reuses the link.
    fn next(&self, client: u32) -> u32 {
        self.next[client as usize]
    }

    /// Distinct pending wake-up instants — the queue-depth gauge.
    fn depth(&self) -> usize {
        self.waiters.len()
    }
}

/// The scheduler map's hasher: the SplitMix64 finalizer of the instant,
/// so every bit of it reaches both the bucket index (low bits) and the
/// probe tag (high bits).
#[derive(Debug, Default)]
struct InstantHasher(u64);

impl Hasher for InstantHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Per-client request bookkeeping, parallel to the slot slab.
#[derive(Debug, Clone, Copy)]
struct ClientMeta {
    arrival: Ticks,
    key: Key,
    /// The request's index in its batch.
    tag: u64,
    /// Whether the arrival event has fired (the client counts as
    /// in-flight from then until completion).
    started: bool,
}

/// The slab + scheduler discrete-event engine.
///
/// An `Engine` is bound to one system and reusable across any number of
/// batches; slot allocations persist, and the scheduler holds
/// only the instants still pending, so repeated rounds (the simulator's
/// normal operation) reuse the arena and leave the heap where the first
/// round left it.
///
/// Over lossy air the engine makes one [`Heard`] memo on its first batch
/// and hands it to every slot it makes, so the clients of a batch hear
/// each transmission once. Every batch starts with the memo emptied: what
/// a batch costs does not depend on the batches before it.
pub struct Engine<'a> {
    system: &'a dyn DynSystem,
    /// Slab of reusable client slots: created lazily on first use, then
    /// recycled via the free list forever after.
    slots: Vec<Box<dyn QuerySlot + 'a>>,
    meta: Vec<ClientMeta>,
    free: Vec<u32>,
    in_flight: usize,
    sched: WakeupScheduler,
    stats: EngineStats,
    /// Per-transmission channel corruption every admitted client sees
    /// ([`ChannelModel::NONE`] for a perfect channel; i.i.d., burst, or
    /// outage-scarred): the model itself until the first batch over lossy
    /// air, and from then on the memo of it the engine's slots share.
    air: Air,
    /// Client-side recovery policy for corrupt reads.
    policy: RetryPolicy,
    /// Observability hub, when enabled: slots record per-walk phase spans,
    /// completions feed the histograms, and every wake-up batch samples
    /// the occupancy gauges. `None` (the default) costs one untaken branch
    /// per completion and per batch — nothing on the per-step hot path.
    obs: Option<Box<MetricsHub>>,
    /// Start of the current busy period (`in_flight > 0`), tracked at the
    /// 0→1 transition so windowed metrics can attribute busy vs idle ticks
    /// per shard. Plain tick bookkeeping — no wall clock.
    busy_since: Option<Ticks>,
    /// Whether started clients use analytical fast-forward (on by
    /// default): scan-heavy schemes collapse runs of mechanical bucket
    /// transitions into one wake-up with bit-identical outcomes and
    /// accounting. Turn off via [`Engine::set_fast_forward`] to force
    /// bucket-by-bucket stepping (the differential baseline).
    fast_forward: bool,
}

impl<'a> Engine<'a> {
    /// A fresh engine for `system` with an empty arena, over a lossless
    /// channel.
    pub fn new(system: &'a dyn DynSystem) -> Self {
        Engine::with_channel(system, ChannelModel::NONE, RetryPolicy::UNBOUNDED)
    }

    /// A fresh engine whose clients all experience the [`ChannelModel`]
    /// `channel` (i.i.d. or burst loss, with or without outage windows —
    /// an i.i.d. [`bda_core::ErrorModel`] lifts in with `errors.into()`)
    /// and recover per `policy` — the fault-injection testbed.
    ///
    /// Corruption is a pure function of each bucket occurrence's absolute
    /// broadcast instant and the model seed, so the slab engine, the
    /// reference heap engine and the direct walker see *identical*
    /// corruption for the same request — the property the
    /// conformance matrix (`crates/bench/tests/conformance.rs`) pins.
    pub fn with_channel(
        system: &'a dyn DynSystem,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Self {
        Engine {
            system,
            slots: Vec::new(),
            meta: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            sched: WakeupScheduler::default(),
            stats: EngineStats::default(),
            air: Air::Model(channel),
            policy,
            obs: None,
            busy_since: None,
            fast_forward: true,
        }
    }

    /// Enable or disable analytical fast-forward for clients started from
    /// now on (it is **on** by default). Fast-forward never changes an
    /// outcome, a tick of accounting, or a recorded span — only the number
    /// of engine events a walk costs — so the only reason to disable it is
    /// to measure the bucket-by-bucket baseline or to drive differential
    /// tests.
    pub fn set_fast_forward(&mut self, enabled: bool) {
        self.fast_forward = enabled;
    }

    /// Turn on metrics collection. Must be called while the arena is idle
    /// (typically right after construction): existing slots are discarded
    /// so every future slot is span-instrumented.
    ///
    /// # Panics
    ///
    /// Panics if clients are currently admitted.
    pub fn enable_metrics(&mut self) {
        assert_eq!(self.occupied(), 0, "enable_metrics requires an idle engine");
        self.slots.clear();
        self.meta.clear();
        self.free.clear();
        self.obs = Some(Box::default());
    }

    /// [`Engine::enable_metrics`] plus time-resolved collection: the hub
    /// carries a windowed [`bda_obs::TimeSeries`] (window width in ticks
    /// per `spec`), so completions, wake batches, in-flight high-water and
    /// busy periods resolve per window as well as in aggregate. Costs the
    /// same one untaken branch as plain metrics when disabled; the window
    /// sums equal the aggregates exactly (pinned on every cell of the
    /// conformance matrix).
    ///
    /// # Panics
    ///
    /// Panics if clients are currently admitted.
    pub fn enable_metrics_windowed(&mut self, spec: WindowSpec) {
        self.enable_metrics();
        self.obs
            .as_deref_mut()
            .expect("metrics just enabled")
            .enable_windows(spec);
    }

    /// The metrics hub, when [`Engine::enable_metrics`] was called.
    pub fn metrics(&self) -> Option<&MetricsHub> {
        self.obs.as_deref()
    }

    /// Detach and return the metrics hub, disabling further collection.
    pub fn take_metrics(&mut self) -> Option<MetricsHub> {
        self.obs.take().map(|b| *b)
    }

    /// Counters accumulated over everything this engine has run.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Client slots ever allocated (the arena's high-water mark). A second
    /// identical batch does not grow it, even when requests abandon: a
    /// completed slot — found, not-found or abandoned — returns to the
    /// free list.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// Number of client slots currently admitted (in flight or awaiting
    /// their arrival instant).
    fn occupied(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Admit a request: claim a slot (reusing a free one if possible) and
    /// schedule its arrival event. The slot itself is not touched until
    /// the arrival fires.
    fn admit(&mut self, arrival: Ticks, key: Key, tag: u64) {
        let id = match self.free.pop() {
            Some(id) => {
                self.meta[id as usize] = ClientMeta {
                    arrival,
                    key,
                    tag,
                    started: false,
                };
                id
            }
            None => {
                let id = u32::try_from(self.slots.len()).expect("client population fits in u32");
                self.slots.push(self.system.make_slot(
                    self.air.clone(),
                    self.policy,
                    self.obs.is_some(),
                ));
                self.meta.push(ClientMeta {
                    arrival,
                    key,
                    tag,
                    started: false,
                });
                id
            }
        };
        self.sched.schedule(arrival, id);
    }

    /// Step client `id` once at batch instant `now`; on completion,
    /// report `(tag, result)` and recycle the slot.
    fn step_client(
        &mut self,
        now: Ticks,
        id: u32,
        on_complete: &mut impl FnMut(u64, CompletedRequest),
    ) {
        let m = self.meta[id as usize];
        if !m.started {
            self.meta[id as usize].started = true;
            self.in_flight += 1;
            if self.in_flight == 1 {
                // Idle → busy transition; the arrival event fires at the
                // request's arrival instant.
                self.busy_since = Some(m.arrival);
            }
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.in_flight);
            let slot = &mut self.slots[id as usize];
            slot.set_fast_forward(self.fast_forward);
            slot.start(m.key, m.arrival);
        }
        self.stats.events += 1;
        match self.slots[id as usize].step() {
            WalkStep::Read { until, .. } | WalkStep::Doze { until } => {
                self.sched.schedule(until, id);
            }
            WalkStep::Done(outcome) => {
                self.in_flight -= 1;
                self.stats.completed += 1;
                self.stats.corrupt_reads += u64::from(outcome.retries);
                self.stats.abandoned += u64::from(outcome.abandoned);
                self.stats.stale_restarts += u64::from(outcome.stale_restarts);
                self.stats.version_skews += u64::from(outcome.version_skews);
                // The walk ends at its arrival plus its access time — a
                // pure function of the outcome, so window attribution is
                // invariant under sharding and fast-forward. (For
                // abandoned walks this can run one bucket past the batch
                // instant delivering the Done: the final corrupted read
                // is charged to access but never walked.)
                let end_tick = m.arrival + outcome.access;
                let busy_start = if self.in_flight == 0 {
                    self.busy_since.take()
                } else {
                    None
                };
                if let Some(hub) = self.obs.as_deref_mut() {
                    hub.complete_at(
                        &Completion {
                            end_tick,
                            access: outcome.access,
                            tuning: outcome.tuning,
                            retries: outcome.retries,
                            stale_restarts: outcome.stale_restarts,
                            version_skews: outcome.version_skews,
                            found: outcome.found,
                            abandoned: outcome.abandoned,
                        },
                        self.slots[id as usize].spans(),
                    );
                    // Busy periods end at the batch instant, not at
                    // `end_tick`: the engine is idle once the batch is
                    // drained, and using the (possibly later) abandoned
                    // end_tick would overlap the next busy period.
                    if let (Some(start), Some(ts)) = (busy_start, hub.windows.as_mut()) {
                        ts.record_busy_span(start, now);
                    }
                }
                self.free.push(id);
                on_complete(
                    m.tag,
                    CompletedRequest {
                        arrival: m.arrival,
                        key: m.key,
                        outcome,
                    },
                );
            }
        }
    }

    /// Drain the earliest wake-up batch, stepping every client scheduled
    /// for that instant. Returns `false` when nothing is pending.
    fn advance(&mut self, on_complete: &mut impl FnMut(u64, CompletedRequest)) -> bool {
        let Some((t, (mut id, last))) = self.sched.pop_batch() else {
            return false;
        };
        self.stats.wake_batches += 1;
        loop {
            let next = self.sched.next(id);
            self.step_client(t, id, on_complete);
            if id == last {
                break;
            }
            id = next;
        }
        if let Some(hub) = self.obs.as_deref_mut() {
            // Wake-up boundaries are the engine's natural sampling grid:
            // one sample per distinct simulated instant.
            hub.gauges.record(Gauge::InFlight, self.in_flight as u64);
            hub.gauges.record(
                Gauge::SlabOccupancy,
                (self.slots.len() - self.free.len()) as u64,
            );
            hub.gauges
                .record(Gauge::WakeupQueueDepth, self.sched.depth() as u64);
            hub.gauges
                .record(Gauge::FreeListLen, self.free.len() as u64);
            if let Some(ts) = hub.windows.as_mut() {
                ts.record_batch(t, self.in_flight as u64);
            }
        }
        true
    }

    /// Run a whole batch of `(arrival, key)` requests to completion,
    /// returning outcomes **in request order**. Arrivals need not be
    /// sorted; simultaneous arrivals are fine.
    pub fn run_batch(&mut self, requests: &[(Ticks, Key)]) -> Vec<CompletedRequest> {
        // The batch's clients share one memo of what they hear, made once
        // and emptied here: a repeated batch costs what its first run did.
        match &self.air {
            Air::Heard(heard) => heard.clear(),
            Air::Model(model) if !model.is_lossless() => {
                self.air = Air::Heard(Arc::new(Heard::new(*model)));
            }
            Air::Model(_) => {}
        }
        if self.occupied() == 0 {
            // Hand the idle arena out in id order, so the requests of a
            // time-ordered batch step the slab front to back.
            self.free.clear();
            self.free.extend((0..self.slots.len() as u32).rev());
        }
        for (i, &(t, key)) in requests.iter().enumerate() {
            self.admit(t, key, i as u64);
        }
        let mut done: Vec<Option<CompletedRequest>> = vec![None; requests.len()];
        while self.advance(&mut |tag, r| done[tag as usize] = Some(r)) {}
        done.into_iter()
            .map(|d| d.expect("engine invariant: every admitted request completes"))
            .collect()
    }
}

pub mod reference {
    //! The naive per-request engine the slab design replaced: a fresh
    //! [`QuerySlot`] per request — never fast-forwarded, so it steps every
    //! bucket — and every wake-up an individual entry in a tuple-keyed
    //! `BinaryHeap`. Kept as the behavioural oracle for the equivalence
    //! property suites and for the benchmark's replay checks.

    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Reference implementation of [`Engine::run_batch`] behind `channel`
    /// under `policy`: identical outcomes, naive scheduling.
    pub fn run_requests_reference_channel(
        system: &dyn DynSystem,
        requests: &[(Ticks, Key)],
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Vec<CompletedRequest> {
        // (time, tiebreak sequence, request index, kind) with kind 0 =
        // arrival, 1 = wake; Reverse for earliest-first order.
        let mut queue: BinaryHeap<Reverse<(Ticks, u64, usize, u8)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (i, &(t, _)) in requests.iter().enumerate() {
            queue.push(Reverse((t, seq, i, 0)));
            seq += 1;
        }

        let mut runs: Vec<Option<Box<dyn QuerySlot + '_>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut done: Vec<Option<CompletedRequest>> = vec![None; requests.len()];

        while let Some(Reverse((_t, _s, i, kind))) = queue.pop() {
            if kind == 0 {
                let (arrival, key) = requests[i];
                let mut slot = system.make_slot_channel(channel, policy);
                slot.start(key, arrival);
                runs[i] = Some(slot);
            }
            let run = runs[i].as_mut().expect("client exists while stepping");
            match run.step() {
                WalkStep::Read { until, .. } | WalkStep::Doze { until } => {
                    queue.push(Reverse((until, seq, i, 1)));
                    seq += 1;
                }
                WalkStep::Done(outcome) => {
                    let (arrival, key) = requests[i];
                    done[i] = Some(CompletedRequest {
                        arrival,
                        key,
                        outcome,
                    });
                    runs[i] = None;
                }
            }
        }

        done.into_iter()
            .map(|d| d.expect("every request completes"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{Dataset, ErrorModel, FlatScheme, Params, Record, Scheme};

    fn system() -> impl DynSystem {
        let ds = Dataset::new((0..32).map(|i| Record::keyed(i * 2)).collect()).unwrap();
        FlatScheme.build(&ds, &Params::paper()).unwrap()
    }

    #[test]
    fn event_engine_matches_direct_probe() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..200u64).map(|i| (i * 137, Key((i % 32) * 2))).collect();
        let results = Engine::new(&sys).run_batch(&requests);
        assert_eq!(results.len(), requests.len());
        for (r, &(t, k)) in results.iter().zip(&requests) {
            assert_eq!(r.arrival, t);
            assert_eq!(r.key, k);
            let direct = sys.probe(k, t);
            assert_eq!(r.outcome, direct, "event-driven ≡ direct for t={t}");
        }
    }

    #[test]
    fn unsorted_arrivals_are_handled() {
        let sys = system();
        let requests = vec![
            (5000u64, Key(0)),
            (0u64, Key(2)),
            (99999u64, Key(4)),
            (1u64, Key(6)),
        ];
        let results = Engine::new(&sys).run_batch(&requests);
        // Results come back in request order regardless of arrival order.
        for (r, &(t, k)) in results.iter().zip(&requests) {
            assert_eq!((r.arrival, r.key), (t, k));
            assert!(r.outcome.found);
        }
    }

    #[test]
    fn simultaneous_arrivals_complete_identically() {
        let sys = system();
        let requests = vec![(1234u64, Key(8)); 10];
        let results = Engine::new(&sys).run_batch(&requests);
        for w in results.windows(2) {
            assert_eq!(w[0].outcome, w[1].outcome);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let sys = system();
        assert!(Engine::new(&sys).run_batch(&[]).is_empty());
    }

    #[test]
    fn slab_engine_matches_reference_engine() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> = (0..500u64)
            .map(|i| ((i * 7919) % 100_000, Key((i % 40) * 2)))
            .collect();
        let slab = Engine::new(&sys).run_batch(&requests);
        let naive = reference::run_requests_reference_channel(
            &sys,
            &requests,
            ChannelModel::NONE,
            RetryPolicy::UNBOUNDED,
        );
        assert_eq!(slab, naive);
    }

    #[test]
    fn slots_are_recycled_across_batches() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        let requests: Vec<(Ticks, Key)> =
            (0..100u64).map(|i| (i * 31, Key((i % 32) * 2))).collect();
        engine.run_batch(&requests);
        let slots_after_first = engine.slots.len();
        engine.run_batch(&requests);
        assert_eq!(
            engine.slots.len(),
            slots_after_first,
            "second identical batch must not grow the arena"
        );
        assert_eq!(engine.stats().completed, 200);
    }

    #[test]
    fn faulty_engine_matches_direct_walker_and_counts_degradation() {
        let sys = system();
        let air = ChannelModel::from(ErrorModel::new(0.15, 0xFA11));
        let policy = RetryPolicy::bounded(2);
        let requests: Vec<(Ticks, Key)> =
            (0..300u64).map(|i| (i * 613, Key((i % 32) * 2))).collect();
        let mut engine = Engine::with_channel(&sys, air, policy);
        let results = engine.run_batch(&requests);
        let mut retries = 0u64;
        let mut abandoned = 0u64;
        for (r, &(t, k)) in results.iter().zip(&requests) {
            let direct = sys.probe_with_channel(k, t, air, policy);
            assert_eq!(r.outcome, direct, "slab ≡ walker under loss at t={t}");
            retries += u64::from(r.outcome.retries);
            abandoned += u64::from(r.outcome.abandoned);
            // Truthfulness: a key that is broadcast is found unless the
            // policy abandoned; it is never silently missed.
            assert!(r.outcome.found || r.outcome.abandoned);
            assert!(!r.outcome.aborted);
        }
        let stats = engine.stats();
        assert!(retries > 0, "15% loss must corrupt something");
        assert_eq!(stats.corrupt_reads, retries);
        assert_eq!(stats.abandoned, abandoned);
    }

    #[test]
    fn lossless_faulty_constructor_is_identity() {
        let sys = system();
        let requests: Vec<(Ticks, Key)> =
            (0..100u64).map(|i| (i * 137, Key((i % 32) * 2))).collect();
        let plain = Engine::new(&sys).run_batch(&requests);
        let faulty = Engine::with_channel(&sys, ChannelModel::NONE, RetryPolicy::default())
            .run_batch(&requests);
        assert_eq!(plain, faulty);
        let strict = Engine::with_channel(
            &sys,
            ChannelModel::NONE,
            RetryPolicy::bounded(0).with_deadline(1),
        )
        .run_batch(&requests);
        assert_eq!(plain, strict, "policies are no-ops without corruption");
    }

    #[test]
    fn observed_engine_matches_plain_and_accounts_every_tick() {
        use bda_obs::Gauge;
        let sys = system();
        let air = ChannelModel::from(ErrorModel::new(0.10, 0x0B5));
        let policy = RetryPolicy::bounded(3);
        let requests: Vec<(Ticks, Key)> =
            (0..300u64).map(|i| (i * 401, Key((i % 32) * 2))).collect();
        let plain = Engine::with_channel(&sys, air, policy).run_batch(&requests);
        let mut engine = Engine::with_channel(&sys, air, policy);
        engine.enable_metrics();
        let observed = engine.run_batch(&requests);
        let hub = engine.take_metrics().expect("metrics were enabled");
        assert_eq!(plain, observed, "observation must not perturb outcomes");

        assert_eq!(hub.completed, requests.len() as u64);
        let (access, tuning, found, abandoned) =
            plain.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, r| {
                (
                    acc.0 + r.outcome.access,
                    acc.1 + r.outcome.tuning,
                    acc.2 + u64::from(r.outcome.found),
                    acc.3 + u64::from(r.outcome.abandoned),
                )
            });
        assert_eq!(hub.found, found);
        assert_eq!(hub.abandoned, abandoned);
        // Exact span accounting: per-phase ticks telescope to the metrics.
        assert_eq!(hub.spans.total_access(), access);
        assert_eq!(hub.spans.total_tuning(), tuning);
        assert_eq!(hub.access.sum(), u128::from(access));
        assert_eq!(hub.tuning.sum(), u128::from(tuning));
        assert_eq!(hub.access.len(), requests.len() as u64);
        // Gauges sampled once per wake batch, never exceeding the arena.
        let occ = hub.gauges.get(Gauge::SlabOccupancy);
        assert!(occ.samples > 0);
        assert_eq!(occ.last, 0, "final batch drains the slab");
        assert!(hub.gauges.get(Gauge::InFlight).max <= requests.len() as u64);
    }

    #[test]
    fn enable_metrics_rejects_a_busy_engine_and_resets_the_arena() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        let requests: Vec<(Ticks, Key)> = (0..40u64).map(|i| (i * 97, Key((i % 32) * 2))).collect();
        engine.run_batch(&requests);
        assert!(engine.metrics().is_none());
        // Idle after the batch: enabling swaps every pooled slot for an
        // observed one, so spans are recorded from the next batch on.
        engine.enable_metrics();
        engine.run_batch(&requests);
        let hub = engine.take_metrics().unwrap();
        assert_eq!(hub.completed, 40);
        assert!(!hub.spans.is_empty(), "observed slots must record spans");
        assert!(engine.metrics().is_none(), "take_metrics clears the hub");
    }

    /// The radix-heap scheduler against a model, an ordered map from each
    /// instant to its FIFO list of clients: the same instants in the same
    /// order, each with the same clients in the same order, and the same
    /// depth after every operation. One scheduler serves several batches,
    /// as an engine's does. Each batch admits clients at unsorted
    /// instants, equal ones and `Ticks::MAX` among them; each popped
    /// client then finishes or wakes again at or after its instant,
    /// sometimes at that very instant (a fast-forward that spent the
    /// probe budget dozes to `now`), which forms a second batch there.
    #[test]
    fn scheduler_matches_an_ordered_map_of_fifo_lists() {
        use bda_datagen::Prng;
        use std::collections::{BTreeMap, VecDeque};

        /// An instant at or after `from`: equal to it, close to it, at any
        /// scale above it, or `Ticks::MAX`.
        fn instant(rng: &mut Prng, from: Ticks) -> Ticks {
            match rng.below(8) {
                0 => from,
                1 => Ticks::MAX,
                2 | 3 => from.saturating_add(rng.below(40)),
                _ => from.saturating_add(rng.next_u64() >> rng.below(64)),
            }
        }

        let mut rng = Prng::new(0x5C4E_D01E);
        let (mut repeats, mut maxima, mut earlier_batches) = (0, 0, 0);
        for _ in 0..400 {
            let mut sched = WakeupScheduler::default();
            let mut model: BTreeMap<Ticks, VecDeque<u32>> = BTreeMap::new();
            let mut last_batch_end = None;
            for _ in 0..1 + rng.below(3) {
                let clients = 1 + rng.below(48) as u32;
                let mut first_arrival = Ticks::MAX;
                for c in 0..clients {
                    let t = instant(&mut rng, 0);
                    first_arrival = first_arrival.min(t);
                    sched.schedule(t, c);
                    model.entry(t).or_default().push_back(c);
                    assert_eq!(sched.depth(), model.len());
                }
                if last_batch_end.is_some_and(|end| first_arrival < end) {
                    earlier_batches += 1;
                }
                let mut prev = None;
                while let Some((t, list)) = model.pop_first() {
                    let (got, (mut id, last)) =
                        sched.pop_batch().expect("the model has an instant");
                    assert_eq!(got, t);
                    repeats += usize::from(prev == Some(t));
                    maxima += usize::from(t == Ticks::MAX);
                    let mut order = Vec::new();
                    loop {
                        let next = sched.next(id);
                        order.push(id);
                        if rng.below(3) > 0 {
                            let wake = instant(&mut rng, t);
                            sched.schedule(wake, id);
                            model.entry(wake).or_default().push_back(id);
                        }
                        if id == last {
                            break;
                        }
                        id = next;
                    }
                    assert_eq!(order, Vec::from(list), "clients waking at {t}");
                    assert_eq!(sched.depth(), model.len());
                    prev = Some(t);
                }
                assert!(sched.pop_batch().is_none());
                assert_eq!(sched.depth(), 0);
                last_batch_end = prev;
            }
        }
        assert!(repeats > 0, "no second batch at a drained instant");
        assert!(maxima > 0, "no wake-up at Ticks::MAX");
        assert!(
            earlier_batches > 0,
            "no batch arriving before the last one ended"
        );
    }

    #[test]
    fn batches_step_same_instant_clients_together() {
        let sys = system();
        let mut engine = Engine::new(&sys);
        // 50 clients arriving at the same instant collapse onto shared
        // wake-up batches: far fewer batches than events.
        let requests = vec![(777u64, Key(8)); 50];
        engine.run_batch(&requests);
        let stats = engine.stats();
        assert_eq!(stats.completed, 50);
        assert!(
            stats.wake_batches < stats.events / 10,
            "expected heavy batching, got {} batches for {} events",
            stats.wake_batches,
            stats.events
        );
    }
}
