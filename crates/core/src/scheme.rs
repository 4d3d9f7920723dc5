//! Scheme and system traits — the uniform surface every access method
//! exposes to the testbed and benchmark harness.

use crate::channel::Channel;
use crate::error::Result;
use crate::errors_model::{Air, ChannelModel, RetryPolicy};
use crate::key::Key;
use crate::machine::{
    run_machine_with_channel, AccessOutcome, ProtocolMachine, Source, Walk, WalkStep,
};
use crate::params::Params;
use crate::record::Dataset;
use crate::Ticks;
use bda_obs::{NoopRecorder, PhaseSpans, Recorder, SpanRecorder};

/// A broadcast access method: given a dataset and sizing parameters, lay
/// out a broadcast cycle.
///
/// This corresponds to the paper's testbed step "depending on which
/// indexing scheme is selected, the `BroadcastServer` creates the
/// corresponding `Channel` object" (§3). The returned [`System`] bundles
/// the laid-out channel with everything needed to spawn client protocol
/// machines.
pub trait Scheme {
    /// The built broadcast system this scheme produces.
    type System: System;

    /// Lay out the broadcast cycle for `dataset` under `params`.
    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System>;

    /// Lay out a broadcast cycle for `dataset` stamped with program
    /// `version` — the rebuild path a dynamic broadcast server takes at
    /// every cycle boundary where updates were applied. Identical to
    /// [`Scheme::build`] except that the channel and every bucket header
    /// carry `version` instead of 0.
    fn rebuild(&self, dataset: &Dataset, params: &Params, version: u64) -> Result<Self::System> {
        let mut sys = self.build(dataset, params)?;
        sys.channel_mut().set_version(version);
        Ok(sys)
    }
}

/// A fully built broadcast system: a channel plus the ability to start
/// client queries against it.
pub trait System: Send + Sync {
    /// Scheme-specific bucket payload type.
    type Payload: Send + Sync;
    /// The client protocol machine type for this scheme.
    type Machine: ProtocolMachine<Self::Payload> + Send;

    /// Human-readable scheme name ("flat", "(1,m)", "distributed",
    /// "hashing", "signature", …).
    fn scheme_name(&self) -> &'static str;

    /// The broadcast cycle.
    fn channel(&self) -> &Channel<Self::Payload>;

    /// Mutable access to the broadcast cycle, so a dynamic server can stamp
    /// a freshly rebuilt program with its cycle version (see
    /// [`Scheme::rebuild`]).
    fn channel_mut(&mut self) -> &mut Channel<Self::Payload>;

    /// Create a protocol machine that searches for `key`.
    fn query(&self, key: Key) -> Self::Machine;

    /// [`System::query`] on this program aired from `origin` on: its cycle
    /// 0 begins at absolute time `origin`, as a churning program's does at
    /// its epoch start. A machine that navigates by the payloads it reads
    /// needs no origin (the default ignores it); one that navigates by
    /// a-priori schedule knowledge reads the schedule from `origin`.
    fn query_from(&self, key: Key, origin: Ticks) -> Self::Machine {
        let _ = origin;
        self.query(key)
    }
}

/// A stepping client query: the one interface every stepped driver
/// advances a walk through.
///
/// Each [`QuerySlot::step`] performs exactly one protocol action (one
/// bucket read, one doze, or completion) — or, with fast-forward on, one
/// run of mechanical ones — so the event engine can schedule the client's
/// next wake-up faithfully. A slot is **reusable**: allocated once (per
/// *concurrent client slot*, not per request) and re-armed with
/// [`QuerySlot::start`] for each new query, so a steady-state simulation
/// with a bounded client population performs no per-request heap
/// allocation at all. The discrete-event engine in `bda-sim` keeps a slab
/// of these; its reference oracle starts a fresh one per request, which
/// never fast-forwards and so steps every bucket.
///
/// There is one implementation, [`WalkSlot`], since every layout is a
/// [`Broadcast`]: a single-channel program, frozen or churning, and a
/// striped or indexed channel group. It takes the recorder as a type
/// parameter, so an observed slot is the same type with a
/// [`SpanRecorder`].
///
/// `Send` is a supertrait so a slab of slots can be owned by a worker
/// thread: the sharded engine partitions clients across cores, and each
/// shard's arena (slots included) lives on that shard's thread. A slot
/// is plain data plus `&`-references into a [`Broadcast`] (which is
/// `Sync`), so the bound is free.
pub trait QuerySlot: Send {
    /// (Re)arm the slot for a new query on `key` tuning in at `tune_in`.
    /// Any previous query's state is discarded; internal storage is reused.
    fn start(&mut self, key: Key, tune_in: Ticks);

    /// Perform the next protocol action of the current query.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never started.
    fn step(&mut self) -> WalkStep;

    /// The current query's per-phase span decomposition, when this slot
    /// records one (an `observed` slot of [`DynSystem::make_slot`]): what
    /// its walk's recorder holds ([`Recorder::spans`]), `None` for an
    /// uninstrumented or never-started slot.
    fn spans(&self) -> Option<&PhaseSpans>;

    /// Ask the slot's subsequent queries to use analytical fast-forward
    /// (see [`Walk::set_fast_forward`]; off in a fresh slot): bit-identical
    /// outcomes and accounting, O(1) walk steps per interesting bucket.
    /// Walks over a *dynamic* broadcast program honour it too, up to the
    /// end of the epoch on air; a machine without a planner (the indexed
    /// channel group's) steps as before.
    fn set_fast_forward(&mut self, enabled: bool);
}

/// A broadcast a client query tunes into: a frozen [`System`], a
/// [`crate::dynamic::ProgramTimeline`] of re-cut ones, or a channel group,
/// striped ([`crate::multichannel::StripedSystem`], over frozen or
/// churning programs) or indexed
/// ([`crate::multichannel::IndexedGroupSystem`]). It reports its name and
/// geometry and hands each query the [`Source`] its [`Walk`] reads and
/// the machine it starts with, so one walk, one driver family
/// ([`crate::machine::run_machine`] and its variants), one slot
/// ([`WalkSlot`]) and one [`DynSystem`] implementation serve every layout.
pub trait Broadcast {
    /// The bucket payload a walk reads.
    type Payload;
    /// The client protocol machine a query runs.
    type Machine: ProtocolMachine<Self::Payload> + Send;
    /// What a walk over this broadcast reads.
    type Source<'a>: Source<'a, Self::Machine, Payload = Self::Payload> + Send
    where
        Self: 'a;

    /// Human-readable scheme name.
    fn scheme_name(&self) -> &'static str;

    /// Cycle length in ticks: the program's on the air at time 0, or a
    /// channel group's longest carrier cycle.
    fn cycle_len(&self) -> Ticks;

    /// Buckets per cycle, over every carrier.
    fn num_buckets(&self) -> usize;

    /// The source and the starting machine of a query for `key` tuning in
    /// at `tune_in`, the machine built against the program on air when
    /// the machine starts: at `tune_in`, or once the retune the source
    /// charges on [`Source::enter`] ends.
    fn tune(&self, key: Key, tune_in: Ticks) -> (Self::Source<'_>, Self::Machine);
}

/// A frozen program is a broadcast whose walks read its one channel.
impl<S: System> Broadcast for S {
    type Payload = <S as System>::Payload;
    type Machine = <S as System>::Machine;
    type Source<'a>
        = &'a Channel<<S as System>::Payload>
    where
        S: 'a;

    fn scheme_name(&self) -> &'static str {
        System::scheme_name(self)
    }

    fn cycle_len(&self) -> Ticks {
        self.channel().cycle_len()
    }

    fn num_buckets(&self) -> usize {
        self.channel().num_buckets()
    }

    fn tune(&self, key: Key, _tune_in: Ticks) -> (Self::Source<'_>, Self::Machine) {
        (self.channel(), self.query(key))
    }
}

/// The reusable [`QuerySlot`] of any [`Broadcast`], one channel or a
/// group, frozen or churning: an in-place [`Walk`], rebuilt (not
/// reallocated) on every [`QuerySlot::start`] with a fresh recorder `R`
/// and a fresh machine that reuses the last one's storage
/// ([`ProtocolMachine::reuse`]).
/// With a [`SpanRecorder`] the query's per-phase spans are exposed
/// through [`QuerySlot::spans`] until the next start.
///
/// The slot keeps its air once: in the walk of its last query, which
/// holds the air and retry policy its next walk reads, and only until the
/// first start on its own. An engine's slots hear their home carrier
/// through the batch's shared memo ([`Air::Heard`]), an 8-byte handle; a
/// stand-alone slot asks the channel model ([`Air::Model`]).
pub struct WalkSlot<'a, B: Broadcast, R = NoopRecorder> {
    broadcast: &'a B,
    walk: Armed<Walk<B::Source<'a>, B::Machine, R>>,
    ff: bool,
}

/// A [`WalkSlot`]'s walk, or the air its first walk will read.
enum Armed<W> {
    /// No query started yet.
    Idle(Air, RetryPolicy),
    /// The current (or last) query's walk.
    Walk(W),
}

impl<'a, B: Broadcast, R> WalkSlot<'a, B, R> {
    /// An empty slot whose queries run over `broadcast` behind `air`
    /// under the client retry `policy`; call [`QuerySlot::start`] to arm
    /// it.
    pub fn new(broadcast: &'a B, air: Air, policy: RetryPolicy) -> Self {
        WalkSlot {
            broadcast,
            walk: Armed::Idle(air, policy),
            ff: false,
        }
    }
}

impl<'a, B: Broadcast + Sync, R: Recorder + Default + Send> QuerySlot for WalkSlot<'a, B, R> {
    fn start(&mut self, key: Key, tune_in: Ticks) {
        let (src, mut machine) = self.broadcast.tune(key, tune_in);
        let (air, policy) = match &mut self.walk {
            Armed::Idle(air, policy) => (air.clone(), *policy),
            Armed::Walk(walk) => {
                machine.reuse(walk.machine_mut());
                walk.air()
            }
        };
        let mut walk =
            Walk::with_channel_recorder(src, machine, tune_in, air, policy, R::default());
        walk.set_fast_forward(self.ff);
        self.walk = Armed::Walk(walk);
    }

    fn set_fast_forward(&mut self, enabled: bool) {
        self.ff = enabled;
        if let Armed::Walk(walk) = &mut self.walk {
            walk.set_fast_forward(enabled);
        }
    }

    fn step(&mut self) -> WalkStep {
        match &mut self.walk {
            Armed::Walk(walk) => walk.step(),
            Armed::Idle(..) => panic!("QuerySlot::step before start"),
        }
    }

    fn spans(&self) -> Option<&PhaseSpans> {
        match &self.walk {
            Armed::Walk(walk) => walk.recorder().spans(),
            Armed::Idle(..) => None,
        }
    }
}

/// Object-safe view of a built broadcast, so the testbed and harness can
/// treat heterogeneous schemes uniformly (`Box<dyn DynSystem>`).
///
/// Every [`Broadcast`] — every [`System`], every timeline of them, and
/// both channel group layouts — implements this through the one blanket
/// impl below, so `probe` and the slots are available on concrete systems
/// too — import this trait to use them.
/// Keeping `probe` on exactly one trait avoids method ambiguity when both
/// traits are in scope.
///
/// Every entry point takes the air a client sees: a [`ChannelModel`]
/// (an i.i.d. [`crate::ErrorModel`] lifts into one with `errors.into()`,
/// bit-identically — DESIGN.md decision 15) and a [`RetryPolicy`]. An
/// implementation writes the three geometry getters, the direct walker
/// and the slot constructor; the lossless [`DynSystem::probe`], the
/// span-recording [`DynSystem::probe_recorded_channel`] and the plain
/// [`DynSystem::make_slot_channel`] are provided.
pub trait DynSystem: Send + Sync {
    /// Human-readable scheme name.
    fn scheme_name(&self) -> &'static str;

    /// Broadcast cycle length in bytes (`Bt`).
    fn cycle_len(&self) -> Ticks;

    /// Buckets per cycle.
    fn num_buckets(&self) -> usize;

    /// Run one complete query to completion behind a [`ChannelModel`]
    /// (i.i.d. or burst loss, outage windows, or both) under an explicit
    /// client [`RetryPolicy`] — the direct walker, fast-forwarding.
    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome;

    /// Allocate a reusable client slot whose queries hear `air` and
    /// recover under `policy`; an `observed` slot's queries record
    /// per-phase spans, exposed via [`QuerySlot::spans`] after each
    /// completion. One slot serves many sequential queries via
    /// [`QuerySlot::start`]; the slab-based event engine keeps one per
    /// concurrent client instead of boxing a walker per request, and hands
    /// each its batch's shared memo ([`Air::Heard`]).
    fn make_slot(&self, air: Air, policy: RetryPolicy, observed: bool) -> Box<dyn QuerySlot + '_>;

    /// An unobserved [`DynSystem::make_slot`] that asks `channel` on every
    /// read.
    fn make_slot_channel(
        &self,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> Box<dyn QuerySlot + '_> {
        self.make_slot(Air::Model(channel), policy, false)
    }

    /// Run one complete query over a lossless channel.
    fn probe(&self, key: Key, tune_in: Ticks) -> AccessOutcome {
        self.probe_with_channel(key, tune_in, ChannelModel::NONE, RetryPolicy::UNBOUNDED)
    }

    /// [`DynSystem::probe_with_channel`] with span instrumentation:
    /// returns the outcome together with its per-phase access/tuning
    /// decomposition (whose totals equal the outcome's `access`/`tuning`
    /// exactly). Drains one observed slot with fast-forward on.
    fn probe_recorded_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> (AccessOutcome, PhaseSpans) {
        let mut slot = self.make_slot(Air::Model(channel), policy, true);
        slot.set_fast_forward(true);
        slot.start(key, tune_in);
        loop {
            if let WalkStep::Done(out) = slot.step() {
                let spans = slot.spans().expect("an observed slot records spans");
                return (out, *spans);
            }
        }
    }
}

impl<B: Broadcast + Send + Sync> DynSystem for B
where
    B::Machine: 'static,
{
    fn scheme_name(&self) -> &'static str {
        Broadcast::scheme_name(self)
    }

    fn cycle_len(&self) -> Ticks {
        Broadcast::cycle_len(self)
    }

    fn num_buckets(&self) -> usize {
        Broadcast::num_buckets(self)
    }

    fn probe_with_channel(
        &self,
        key: Key,
        tune_in: Ticks,
        channel: ChannelModel,
        policy: RetryPolicy,
    ) -> AccessOutcome {
        let (src, machine) = self.tune(key, tune_in);
        run_machine_with_channel(src, machine, tune_in, channel, policy)
    }

    fn make_slot(&self, air: Air, policy: RetryPolicy, observed: bool) -> Box<dyn QuerySlot + '_> {
        if observed {
            Box::new(WalkSlot::<_, SpanRecorder>::new(self, air, policy))
        } else {
            Box::new(WalkSlot::<_, NoopRecorder>::new(self, air, policy))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors_model::ErrorModel;
    use crate::flat::FlatScheme;
    use crate::machine::run_machine;
    use crate::record::Record;

    fn tiny_dataset() -> Dataset {
        Dataset::new((0..8).map(|i| Record::keyed(i * 10)).collect()).unwrap()
    }

    /// Start `slot` on `key` at `t` and step it to completion.
    fn drain_slot(slot: &mut dyn QuerySlot, key: Key, t: Ticks) -> AccessOutcome {
        slot.start(key, t);
        loop {
            if let WalkStep::Done(out) = slot.step() {
                return out;
            }
        }
    }

    #[test]
    fn dyn_system_matches_typed_system() {
        let ds = tiny_dataset();
        let params = Params::paper();
        let sys = FlatScheme.build(&ds, &params).unwrap();
        let dynsys: &dyn DynSystem = &sys;

        assert_eq!(dynsys.scheme_name(), "flat");
        assert_eq!(dynsys.num_buckets(), 8);
        assert_eq!(dynsys.cycle_len(), 8 * u64::from(params.data_bucket_size()));

        for t in [0u64, 17, 1000, 5555] {
            let a = run_machine(sys.channel(), sys.query(Key(30)), t);
            let b = dynsys.probe(Key(30), t);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reused_slot_agrees_with_one_shot_probe() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        let mut slot = dynsys.make_slot_channel(ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        // One slot serves many sequential queries.
        for key in [Key(0), Key(50), Key(55), Key(20)] {
            for t in [0u64, 123, 4096] {
                slot.start(key, t);
                let stepped = loop {
                    if let WalkStep::Done(out) = slot.step() {
                        break out;
                    }
                };
                assert_eq!(stepped, dynsys.probe(key, t));
            }
        }
    }

    #[test]
    fn fault_armed_slot_agrees_with_policy_probe() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        let air = ChannelModel::from(ErrorModel::new(0.2, 11));
        let policy = RetryPolicy::bounded(3);
        let mut slot = dynsys.make_slot_channel(air, policy);
        for key in [Key(0), Key(50), Key(55), Key(20)] {
            for t in [0u64, 123, 4096] {
                let stepped = drain_slot(slot.as_mut(), key, t);
                assert_eq!(stepped, dynsys.probe_with_channel(key, t, air, policy));
                // A fresh slot never fast-forwards: it steps every bucket.
                let fresh = drain_slot(dynsys.make_slot_channel(air, policy).as_mut(), key, t);
                assert_eq!(fresh, stepped);
            }
        }
    }

    #[test]
    fn observed_slot_and_probe_agree_with_plain_ones() {
        let ds = tiny_dataset();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let dynsys: &dyn DynSystem = &sys;
        let air = ChannelModel::from(ErrorModel::new(0.2, 11));
        let policy = RetryPolicy::bounded(3);
        let mut slot = dynsys.make_slot(air.into(), policy, true);
        assert!(slot.spans().is_none(), "unarmed slot has no spans");
        for key in [Key(0), Key(50), Key(55), Key(20)] {
            for t in [0u64, 123, 4096] {
                let plain = dynsys.probe_with_channel(key, t, air, policy);
                let (recorded, spans) = dynsys.probe_recorded_channel(key, t, air, policy);
                assert_eq!(plain, recorded);
                assert_eq!(spans.total_access(), plain.access);
                assert_eq!(spans.total_tuning(), plain.tuning);

                assert_eq!(drain_slot(slot.as_mut(), key, t), plain);
                let slot_spans = slot.spans().expect("observed slot exposes spans");
                assert_eq!(*slot_spans, spans);
            }
        }
    }
}
