//! Multichannel broadcast groups (extension).
//!
//! Everything else in this crate broadcasts on **one** channel. Real
//! satellite and cellular broadcast systems stripe data across K parallel
//! carriers, and a client radio can tune only one of them at a time —
//! retuning costs real air time. This module generalizes the single
//! [`Channel`] into a **channel group**: K synchronized channels sharing
//! one tick clock (one byte per tick *per channel*), with two layouts:
//!
//! * [`StripedScheme`] — partition the key space into K contiguous slices
//!   and broadcast each slice as a self-contained program (any inner
//!   [`Scheme`]) on its own channel. A query routes to the channel owning
//!   its key range, pays one [`GroupConfig::switch_cost`] retune when that
//!   channel is not the home channel 0, and then runs the inner scheme's
//!   ordinary protocol unchanged. With `channels == 1` the striped system
//!   *is* the single-channel system, bit for bit.
//! * [`IndexedGroupScheme`] — a genuinely cross-channel layout: channel 0
//!   carries a two-level directory (root buckets, then directory buckets)
//!   whose leaf entries are [`BucketRef`]s pointing **across channels** at
//!   data buckets striped over channels `1..K`. Clients follow the
//!   pointers with the same forward-only discipline as
//!   [`crate::disks::DiskGeometry`]: a retune lands on the *next reachable
//!   occurrence* of the target bucket, never backward in time.
//!
//! **Equal aggregate bandwidth.** Splitting one carrier into K channels
//! slows each down by K×; rather than introduce a tick-per-byte ratio,
//! every per-channel program is built with [`Params::scaled`]`(K)`, so
//! byte-time arithmetic is unchanged and cross-K comparisons are fair.
//!
//! **Fault derivation.** Channel 0 keeps the caller's fault model
//! untouched (so K=1 is bit-identical to the single-channel path);
//! channels `g > 0` remix every seed in the model with
//! [`remix_seed`]`(seed, g)` — same loss probabilities, independent draws
//! — preserving the purity contract (corruption a pure function of bucket
//! start instant and seed) that sharded merge and fast-forward require.
//!
//! **Switch accounting.** The client radio rests on channel 0, and every
//! retune belongs to the query's walk. A striped query homed on channel
//! `g != 0` retunes before it can hear anything: its walk charges
//! `switch_cost` ticks when it is built ([`Source::enter`]) and starts the
//! channel's machine when the retune ends. An indexed-group query retunes
//! when its machine steers it to a data channel ([`Action::DozeOn`]).
//! Either way the switch is access time, counted by a give-up deadline
//! ([`RetryPolicy::give_up_after`](crate::RetryPolicy::give_up_after))
//! like every tick since tune-in. Tuning time does not grow — a retuning
//! radio is not demodulating. Observed walks attribute the cost to the
//! dedicated [`bda_obs::Phase::ChannelSwitch`] span.

use std::sync::Arc;

use crate::bucket::{Bucket, BucketMeta};
use crate::channel::{next_occurrence, Channel};
use crate::error::{BdaError, ProtocolFault, Result};
use crate::errors_model::{Air, ChannelModel, ErrorModel, LossModel, OutageSchedule};
use crate::key::Key;
use crate::machine::{Action, Landing, ProtocolMachine, Source, Verdict};
use crate::params::Params;
use crate::record::Dataset;
use crate::scheme::{Broadcast, Scheme};
use crate::Ticks;
use bda_obs::BucketKind;

/// A cross-channel bucket address: bucket starting at cycle-relative
/// `offset` on channel `channel` of the group. Directory entries carry
/// these; a client resolves one to its next occurrence on that channel
/// (as [`Channel::occurrence_at_or_after`] does), forward-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BucketRef {
    /// Group channel index (0 = index/home channel).
    pub channel: u32,
    /// Start offset of the bucket within its channel's cycle, in ticks.
    pub offset: Ticks,
}

/// Multichannel group shape: how many synchronized channels, and what one
/// retune costs the client in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupConfig {
    /// Total number of channels in the group (≥ 1). For
    /// [`IndexedGroupScheme`] this includes the index channel 0.
    pub channels: u32,
    /// Air time one channel retune costs the client, in ticks.
    pub switch_cost: Ticks,
}

impl GroupConfig {
    /// The degenerate single-channel group.
    pub const SINGLE: GroupConfig = GroupConfig {
        channels: 1,
        switch_cost: 0,
    };

    /// A group of `channels` channels with retunes costing `switch_cost`.
    pub fn new(channels: u32, switch_cost: Ticks) -> Result<Self> {
        if channels == 0 {
            return Err(BdaError::BadParams(
                "a channel group needs at least one channel".into(),
            ));
        }
        if channels > 64 {
            return Err(BdaError::BadParams(format!(
                "channel group too wide ({channels} > 64)"
            )));
        }
        Ok(GroupConfig {
            channels,
            switch_cost,
        })
    }
}

/// Derive channel `g`'s fault seed from the base seed: identity for the
/// home channel 0, an independent splitmix draw for every other channel.
/// Purity is preserved — the derived seed is a constant per `(seed, g)`.
pub fn remix_seed(seed: u64, g: u32) -> u64 {
    if g == 0 {
        return seed;
    }
    let mut z = seed
        ^ (u64::from(g)
            .wrapping_add(0x5EED)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Channel `g`'s view of the caller's [`ErrorModel`]: same loss rate,
/// remixed seed (identity at `g == 0`).
fn error_model_for(base: ErrorModel, g: u32) -> ErrorModel {
    ErrorModel {
        loss_prob: base.loss_prob,
        seed: remix_seed(base.seed, g),
    }
}

/// Channel `g`'s view of the caller's [`ChannelModel`]: every probability
/// and schedule shape unchanged, every seed remixed (identity at
/// `g == 0`). Carriers fade independently, but with the same severity.
pub fn channel_model_for(base: ChannelModel, g: u32) -> ChannelModel {
    if g == 0 {
        return base;
    }
    let loss = match base.loss {
        LossModel::Iid(m) => LossModel::Iid(error_model_for(m, g)),
        LossModel::Burst(m) => LossModel::Burst(crate::errors_model::BurstModel {
            seed: remix_seed(m.seed, g),
            ..m
        }),
    };
    let outages = if base.outages.is_none() {
        base.outages
    } else {
        OutageSchedule {
            seed: remix_seed(base.outages.seed, g),
            ..base.outages
        }
    };
    ChannelModel { loss, outages }
}

/// Split `n` records into `k` contiguous slice sizes, as even as
/// possible (the first `n % k` slices get one extra record). Every slice
/// is non-empty when `k <= n`.
pub fn even_partition(n: usize, k: usize) -> Vec<usize> {
    let k = k.max(1);
    let base = n / k;
    let rem = n % k;
    (0..k).map(|i| base + usize::from(i < rem)).collect()
}

// ---------------------------------------------------------------------------
// Striped groups: one self-contained inner program per channel.
// ---------------------------------------------------------------------------

/// Stripe any inner [`Scheme`] across a channel group: the key-sorted
/// dataset is split into `channels` contiguous slices and each slice is
/// built as a self-contained inner program on its own channel (with
/// [`Params::scaled`] dilation for equal aggregate bandwidth).
pub struct StripedScheme<S> {
    inner: S,
    config: GroupConfig,
    partition: Option<Vec<usize>>,
}

impl<S: Scheme> StripedScheme<S> {
    /// Stripe `inner` over `config.channels` channels with even contiguous
    /// slices.
    pub fn new(inner: S, config: GroupConfig) -> Self {
        StripedScheme {
            inner,
            config,
            partition: None,
        }
    }

    /// Stripe with an explicit slice-size partition (the air-time
    /// allocator's output). `sizes` must have one entry per channel, all
    /// positive, summing to the dataset length at build time.
    pub fn with_partition(inner: S, config: GroupConfig, sizes: Vec<usize>) -> Self {
        StripedScheme {
            inner,
            config,
            partition: Some(sizes),
        }
    }

    /// Lay out the group.
    pub fn build(&self, dataset: &Dataset, params: &Params) -> Result<StripedSystem<S::System>> {
        StripedSystem::stripe(
            dataset,
            params,
            self.config,
            self.partition.as_deref(),
            |_, slice, scaled| self.inner.build(slice, scaled),
        )
    }
}

/// A built striped group: one inner [`Broadcast`] per channel (a frozen
/// [`crate::scheme::System`], or a churning program such as a versioned
/// server) plus the frozen routing directory (first key of each slice).
pub struct StripedSystem<S> {
    channels: Vec<S>,
    bounds: Vec<u64>,
    switch_cost: Ticks,
}

impl<S> StripedSystem<S> {
    /// Stripe `dataset` over `config.channels` channels, never more than it
    /// has records (an idle channel would break the "every channel is a
    /// self-contained program" invariant). The key-sorted records split
    /// into contiguous slices, sized by `partition` (the air-time
    /// allocator's output: one positive size per channel, summing to the
    /// dataset length) or evenly without one, and `build(g, slice,
    /// scaled)` lays out channel `g`'s program from its slice under
    /// [`Params::scaled`] dilation. A key routes to the last channel whose
    /// slice's first key is at or below it.
    pub fn stripe(
        dataset: &Dataset,
        params: &Params,
        config: GroupConfig,
        partition: Option<&[usize]>,
        mut build: impl FnMut(usize, &Dataset, &Params) -> Result<S>,
    ) -> Result<Self> {
        let n = dataset.len();
        let k = (config.channels as usize).min(n).max(1);
        let sizes = match partition {
            None => even_partition(n, k),
            Some(sizes) if sizes.len() != k => {
                return Err(BdaError::BadParams(format!(
                    "partition has {} slices for {k} channels",
                    sizes.len()
                )));
            }
            Some(sizes) if sizes.contains(&0) || sizes.iter().sum::<usize>() != n => {
                return Err(BdaError::BadParams(format!(
                    "partition {sizes:?} does not cover {n} records"
                )));
            }
            Some(sizes) => sizes.to_vec(),
        };
        let scaled = params.scaled(k as u32);
        let mut channels = Vec::with_capacity(k);
        let mut bounds = Vec::with_capacity(k);
        let mut lo = 0usize;
        for (g, &len) in sizes.iter().enumerate() {
            let slice = &dataset.records()[lo..lo + len];
            bounds.push(slice[0].key.0);
            channels.push(build(g, &Dataset::new(slice.to_vec())?, &scaled)?);
            lo += len;
        }
        Ok(StripedSystem {
            channels,
            bounds,
            switch_cost: config.switch_cost,
        })
    }

    /// Number of channels in the group.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Air time one retune costs, in ticks.
    pub fn switch_cost(&self) -> Ticks {
        self.switch_cost
    }

    /// Channel `g`'s inner program.
    pub fn channel_system(&self, g: usize) -> &S {
        &self.channels[g]
    }

    /// The routing directory: first key of each channel's slice.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// The channel a query for `key` tunes to: the slice whose key range
    /// covers it (absent keys route to the covering range too, so the
    /// inner scheme answers not-found from the air).
    pub fn route(&self, key: Key) -> usize {
        self.bounds
            .partition_point(|&b| b <= key.0)
            .saturating_sub(1)
    }
}

/// A striped group is a broadcast whose every query runs the ordinary
/// protocol of the channel its key routes to, so the blanket
/// [`crate::scheme::DynSystem`] impl and [`crate::scheme::WalkSlot`]
/// serve it, frozen or churning. The query's walk pays the retune to that
/// channel first (none to the home channel 0), and the channel's machine
/// is built against the program on air when the retune ends.
impl<S: Broadcast> Broadcast for StripedSystem<S> {
    type Payload = S::Payload;
    type Machine = S::Machine;
    type Source<'a>
        = StripedSource<'a, S>
    where
        S: 'a;

    fn scheme_name(&self) -> &'static str {
        Broadcast::scheme_name(&self.channels[0])
    }

    fn cycle_len(&self) -> Ticks {
        // Channels are not harmonically related in general, so the
        // group's natural back-off unit is its longest per-channel cycle.
        self.channels.iter().map(S::cycle_len).max().unwrap_or(0)
    }

    fn num_buckets(&self) -> usize {
        self.channels.iter().map(S::num_buckets).sum()
    }

    fn tune(&self, key: Key, tune_in: Ticks) -> (StripedSource<'_, S>, S::Machine) {
        let g = self.route(key);
        let switch_cost = if g == 0 { 0 } else { self.switch_cost };
        let (inner, machine) = self.channels[g].tune(key, tune_in.saturating_add(switch_cost));
        let source = StripedSource {
            inner,
            carrier: g as u32,
            switch_cost,
            air: Air::Model(ChannelModel::NONE),
        };
        (source, machine)
    }
}

/// The [`Source`] of a walk over a [`StripedSystem`]: the routed
/// channel's own source, read behind that channel's air
/// ([`channel_model_for`]), which charges the retune to that channel on
/// [`Source::enter`]. The walk asks the routed channel's model on every
/// read, never a batch's shared memo of the home carrier.
pub struct StripedSource<'a, S: Broadcast + 'a> {
    /// The routed channel's own source.
    inner: S::Source<'a>,
    /// The routed channel.
    carrier: u32,
    /// What the retune to it costs: nothing for the home channel 0.
    switch_cost: Ticks,
    /// The routed channel's air, derived on entry.
    air: Air,
}

impl<'a, S: Broadcast + 'a> Source<'a, S::Machine> for StripedSource<'a, S> {
    type Payload = S::Payload;

    fn max_buckets(&self) -> usize {
        self.inner.max_buckets()
    }

    #[inline]
    fn first_complete_at(&mut self, t: Ticks) -> Landing<'a, S::Payload> {
        self.inner.first_complete_at(t)
    }

    #[inline]
    fn ff_limit(&self, at: &Landing<'a, S::Payload>) -> Option<Ticks> {
        self.inner.ff_limit(at)
    }

    #[inline]
    fn respawn(&mut self, at: &Landing<'a, S::Payload>, version: u64) -> Option<S::Machine> {
        self.inner.respawn(at, version)
    }

    #[inline]
    fn air<'c>(&'c self, _base: &'c Air) -> &'c Air {
        self.inner.air(&self.air)
    }

    fn retune(&mut self, carrier: u32, _base: &ChannelModel) -> Option<Ticks> {
        self.inner.retune(carrier, self.air.model())
    }

    fn enter(&mut self, base: &ChannelModel) -> Ticks {
        self.air = Air::Model(channel_model_for(*base, self.carrier));
        self.switch_cost
            .saturating_add(self.inner.enter(self.air.model()))
    }
}

// ---------------------------------------------------------------------------
// Indexed groups: a cross-channel directory on channel 0.
// ---------------------------------------------------------------------------

/// Bucket payloads of an indexed channel group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupPayload {
    /// Channel-0 root bucket: one `(first key, directory offset)` entry
    /// per directory bucket in this root's block.
    Root {
        /// `(first key of the directory bucket's range, channel-0 cycle
        /// offset of that directory bucket)`, sorted by key.
        entries: Vec<(u64, Ticks)>,
        /// First key of the *next* root bucket's first entry, if any — a
        /// scanning client stops at the root where the key is below this.
        next_first: Option<u64>,
        /// Ticks from this bucket's end to the next occurrence of root
        /// bucket 0 (the published resynchronization offset).
        to_root: Ticks,
    },
    /// Channel-0 directory bucket: exact key → cross-channel data-bucket
    /// address.
    Dir {
        /// `(key, data-bucket address)`, sorted by key.
        entries: Vec<(u64, BucketRef)>,
        /// First key of the next directory bucket's range, if any — a key
        /// inside `[entries[0].0, next_first)` that is not listed is
        /// *provably absent*, answered not-found from the air.
        next_first: Option<u64>,
        /// Ticks from this bucket's end to the next occurrence of root
        /// bucket 0.
        to_root: Ticks,
    },
    /// Data bucket on channels `1..K`: one record.
    Data {
        /// The record's primary key.
        key: u64,
    },
}

/// An indexed channel group: a two-level directory on channel 0 whose
/// leaves point across channels at data buckets striped over `1..K`.
///
/// Channel 0's cycle is `[root_0 .. root_{R-1}, dir_0 .. dir_{D-1}]` with
/// `D = ⌈n / fanout⌉` and `R = ⌈D / fanout⌉` (fanout =
/// [`Params::index_entries_per_bucket`], scale-invariant). The program is
/// frozen — the dynamic/churn path applies to striped groups, whose
/// channels are self-contained programs.
pub struct IndexedGroupScheme {
    config: GroupConfig,
    placement: Option<Vec<(u32, u32)>>,
}

impl IndexedGroupScheme {
    /// An indexed group over `config.channels` total channels (≥ 2: one
    /// index channel plus at least one data channel), data striped evenly
    /// and contiguously over channels `1..K`.
    pub fn new(config: GroupConfig) -> Result<Self> {
        if config.channels < 2 {
            return Err(BdaError::BadParams(
                "an indexed group needs an index channel plus at least one data channel".into(),
            ));
        }
        Ok(IndexedGroupScheme {
            config,
            placement: None,
        })
    }

    /// An indexed group with an explicit per-record `(channel, slot)`
    /// placement (the air-time allocator's output): `placement[i]` locates
    /// record `i` of the key-sorted dataset, channels in `1..config.channels`,
    /// and each channel's slots must be exactly `0..n_d`.
    pub fn with_placement(config: GroupConfig, placement: Vec<(u32, u32)>) -> Result<Self> {
        let mut s = IndexedGroupScheme::new(config)?;
        s.placement = Some(placement);
        Ok(s)
    }

    /// Lay out the group.
    pub fn build(&self, dataset: &Dataset, params: &Params) -> Result<IndexedGroupSystem> {
        if dataset.is_empty() {
            return Err(BdaError::BadParams("cannot index an empty dataset".into()));
        }
        let n = dataset.len();
        let total = self.config.channels as usize;
        let data_channels = total - 1;
        let scaled = params.scaled(self.config.channels);
        scaled.validate()?;
        let bs = Ticks::from(scaled.data_bucket_size());

        // Per-record (channel, slot) placement: allocator-provided or
        // contiguous even striping over the data channels.
        let placement: Vec<(u32, u32)> = match &self.placement {
            Some(p) => {
                if p.len() != n {
                    return Err(BdaError::BadParams(format!(
                        "placement has {} entries for {} records",
                        p.len(),
                        n
                    )));
                }
                p.clone()
            }
            None => {
                let sizes = even_partition(n, data_channels.min(n));
                let mut p = Vec::with_capacity(n);
                for (d, &len) in sizes.iter().enumerate() {
                    for slot in 0..len {
                        p.push((d as u32 + 1, slot as u32));
                    }
                }
                p
            }
        };

        // Validate the placement is a per-channel permutation and build
        // the data channels.
        let mut slots: Vec<Vec<Option<u64>>> = vec![Vec::new(); data_channels];
        for (i, &(ch, slot)) in placement.iter().enumerate() {
            if ch == 0 || ch as usize >= total {
                return Err(BdaError::BadParams(format!(
                    "record {i} placed on channel {ch} outside 1..{total}"
                )));
            }
            let lane = &mut slots[ch as usize - 1];
            let slot = slot as usize;
            if lane.len() <= slot {
                lane.resize(slot + 1, None);
            }
            if lane[slot].is_some() {
                return Err(BdaError::BadParams(format!(
                    "two records placed at channel {ch} slot {slot}"
                )));
            }
            lane[slot] = Some(dataset.record(i).key.0);
        }
        let mut data = Vec::with_capacity(data_channels);
        for (d, lane) in slots.into_iter().enumerate() {
            if lane.is_empty() {
                return Err(BdaError::BadParams(format!(
                    "data channel {} carries no records",
                    d + 1
                )));
            }
            let buckets: Result<Vec<Bucket<GroupPayload>>> = lane
                .into_iter()
                .enumerate()
                .map(|(slot, key)| match key {
                    Some(key) => Ok(Bucket::new(
                        scaled.data_bucket_size(),
                        GroupPayload::Data { key },
                    )),
                    None => Err(BdaError::BadParams(format!(
                        "channel {} slot {slot} left empty by placement",
                        d + 1
                    ))),
                })
                .collect();
            data.push(Channel::new(buckets?)?);
        }

        // Directory buckets: fanout keys each, entries pointing across
        // channels at the records' placed buckets.
        let fanout = scaled.index_entries_per_bucket();
        let dirs = n.div_ceil(fanout);
        let roots = dirs.div_ceil(fanout);
        let cycle0 = (roots + dirs) as Ticks * bs;
        let dir_first = |j: usize| dataset.record(j * fanout).key.0;
        let mut buckets = Vec::with_capacity(roots + dirs);
        for r in 0..roots {
            let blk_lo = r * fanout;
            let blk_hi = ((r + 1) * fanout).min(dirs);
            let entries = (blk_lo..blk_hi)
                .map(|j| (dir_first(j), (roots + j) as Ticks * bs))
                .collect();
            let next_first = (blk_hi < dirs).then(|| dir_first(blk_hi));
            let end = (r + 1) as Ticks * bs;
            buckets.push(Bucket::new(
                scaled.data_bucket_size(),
                GroupPayload::Root {
                    entries,
                    next_first,
                    to_root: cycle0 - end,
                },
            ));
        }
        for j in 0..dirs {
            let lo = j * fanout;
            let hi = ((j + 1) * fanout).min(n);
            let entries = (lo..hi)
                .map(|i| {
                    let (ch, slot) = placement[i];
                    (
                        dataset.record(i).key.0,
                        BucketRef {
                            channel: ch,
                            offset: Ticks::from(slot) * bs,
                        },
                    )
                })
                .collect();
            let next_first = (hi < n).then(|| dataset.record(hi).key.0);
            let end = (roots + j + 1) as Ticks * bs;
            buckets.push(Bucket::new(
                scaled.data_bucket_size(),
                GroupPayload::Dir {
                    entries,
                    next_first,
                    to_root: cycle0 - end,
                },
            ));
        }
        let mut carriers = vec![Channel::new(buckets)?];
        carriers.append(&mut data);
        Ok(IndexedGroupSystem {
            cycles: carriers.iter().map(Channel::cycle_len).collect(),
            carriers,
            config: self.config,
            bucket_size: bs,
            num_roots: roots,
        })
    }
}

/// A built indexed channel group: the index channel and the data channels
/// as carriers `0..K` of one group, a [`Broadcast`] whose walks run the
/// [`GroupMachine`] over a [`GroupSource`].
pub struct IndexedGroupSystem {
    /// Carrier 0 is the index channel; carriers `1..K` carry the data.
    carriers: Vec<Channel<GroupPayload>>,
    /// Every carrier's cycle length: the schedule a client knows a priori.
    cycles: Arc<[Ticks]>,
    config: GroupConfig,
    bucket_size: Ticks,
    num_roots: usize,
}

impl IndexedGroupSystem {
    /// The index channel (channel 0).
    pub fn index(&self) -> &Channel<GroupPayload> {
        &self.carriers[0]
    }

    /// Data channel `d` (group channel `d + 1`).
    pub fn data_channel(&self, d: usize) -> &Channel<GroupPayload> {
        &self.carriers[d + 1]
    }

    /// Total channels in the group (index included).
    pub fn num_channels(&self) -> usize {
        self.carriers.len()
    }

    /// The group shape this system was built with.
    pub fn config(&self) -> GroupConfig {
        self.config
    }

    /// Uniform on-air bucket size of every channel, in ticks.
    pub fn bucket_size(&self) -> Ticks {
        self.bucket_size
    }

    /// Number of root buckets at the head of channel 0's cycle.
    pub fn num_roots(&self) -> usize {
        self.num_roots
    }

    /// Where `key`'s record airs, per the directory — `None` for absent
    /// keys. Layout tests pin this against the placement.
    pub fn bucket_ref(&self, key: Key) -> Option<BucketRef> {
        self.index()
            .buckets()
            .iter()
            .find_map(|b| match &b.payload {
                GroupPayload::Dir { entries, .. } => entries
                    .binary_search_by_key(&key.0, |e| e.0)
                    .ok()
                    .map(|i| entries[i].1),
                _ => None,
            })
    }
}

/// An indexed group is a broadcast over its carriers: every driver runs
/// its queries as the one [`crate::Walk`] of a [`GroupMachine`] over a
/// [`GroupSource`].
impl Broadcast for IndexedGroupSystem {
    type Payload = GroupPayload;
    type Machine = GroupMachine;
    type Source<'a> = GroupSource<'a>;

    fn scheme_name(&self) -> &'static str {
        "indexed-group"
    }

    fn cycle_len(&self) -> Ticks {
        self.cycles.iter().copied().max().unwrap_or(0)
    }

    fn num_buckets(&self) -> usize {
        self.carriers.iter().map(Channel::num_buckets).sum()
    }

    fn tune(&self, key: Key, _tune_in: Ticks) -> (GroupSource<'_>, GroupMachine) {
        let source = GroupSource {
            system: self,
            carrier: 0,
            air: Air::Model(ChannelModel::NONE),
        };
        let machine = GroupMachine {
            key,
            cycles: Arc::clone(&self.cycles),
            num_roots: self.num_roots,
            switch_cost: self.config.switch_cost,
            carrier: 0,
            probing: true,
        };
        (source, machine)
    }
}

/// The [`Source`] of a walk over an [`IndexedGroupSystem`]: it lands each
/// read on the carrier the client is tuned to, behind that carrier's air
/// ([`channel_model_for`]), and charges [`GroupConfig::switch_cost`] per
/// retune. The client starts on the index channel, carrier 0, the home
/// carrier, whose air is the walk's own (a batch's shared memo included);
/// a walk on any other carrier asks that carrier's model.
pub struct GroupSource<'a> {
    system: &'a IndexedGroupSystem,
    /// The carrier the client is tuned to.
    carrier: u32,
    /// That carrier's air, once the client has left carrier 0.
    air: Air,
}

impl<'a> Source<'a, GroupMachine> for GroupSource<'a> {
    type Payload = GroupPayload;

    fn max_buckets(&self) -> usize {
        Broadcast::num_buckets(self.system)
    }

    fn first_complete_at(&mut self, t: Ticks) -> Landing<'a, GroupPayload> {
        let ch = &self.system.carriers[self.carrier as usize];
        let (idx, start) = ch.first_complete_at(t);
        Landing {
            ch,
            epoch: 0,
            idx,
            start,
        }
    }

    fn ff_limit(&self, _at: &Landing<'a, GroupPayload>) -> Option<Ticks> {
        Some(Ticks::MAX)
    }

    fn respawn(&mut self, _at: &Landing<'a, GroupPayload>, _version: u64) -> Option<GroupMachine> {
        None
    }

    fn air<'c>(&'c self, base: &'c Air) -> &'c Air {
        if self.carrier == 0 {
            base
        } else {
            &self.air
        }
    }

    fn retune(&mut self, carrier: u32, base: &ChannelModel) -> Option<Ticks> {
        if carrier == self.carrier {
            return Some(0);
        }
        if carrier as usize >= self.system.carriers.len() {
            return None;
        }
        self.carrier = carrier;
        self.air = Air::Model(channel_model_for(*base, carrier));
        Some(self.system.config.switch_cost)
    }
}

/// The client protocol of an [`IndexedGroupSystem`]: probe channel 0,
/// resynchronize to the root block, scan roots forward to the directory
/// bucket covering the key, read it, then either answer not-found from the
/// air or retune (paying [`GroupConfig::switch_cost`]) to the data channel
/// and read the record at its next occurrence — forward-only at every hop.
///
/// Its a-priori knowledge is the group's published schedule: every
/// carrier's cycle length, the root count and the retune cost. A corrupted
/// probe of channel 0 probes on; a corrupted read of a bucket the walk was
/// steered to re-reads it at its next occurrence on the same carrier. The
/// walk backs either off by whole cycles of that carrier.
#[derive(Debug)]
pub struct GroupMachine {
    key: Key,
    /// Every carrier's cycle length (carrier 0 first).
    cycles: Arc<[Ticks]>,
    num_roots: usize,
    switch_cost: Ticks,
    /// The carrier the client is tuned to.
    carrier: u32,
    /// Whether the walk is probing channel 0 (any bucket will do) rather
    /// than reading a bucket it was steered to.
    probing: bool,
}

/// Doze to `at`, or read on when the bucket there starts at `end`.
fn doze_or_read(at: Ticks, end: Ticks) -> Action {
    if at > end {
        Action::DozeTo(at)
    } else {
        Action::ReadNext
    }
}

impl GroupMachine {
    /// Resynchronize: probe channel 0 again from the next root block,
    /// `to_root` ticks after `end`.
    fn resync(&mut self, end: Ticks, to_root: Ticks) -> Action {
        self.probing = true;
        doze_or_read(end.saturating_add(to_root), end)
    }
}

impl ProtocolMachine<GroupPayload> for GroupMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        Action::ReadNext
    }

    fn on_bucket(&mut self, payload: &GroupPayload, meta: BucketMeta) -> Action {
        let key = self.key.0;
        match payload {
            GroupPayload::Root {
                entries,
                next_first,
                to_root,
            } => {
                if next_first.is_some_and(|nf| key >= nf) {
                    // Target directory lives under a later root: roots
                    // are contiguous, keep listening.
                    self.probing = false;
                    return Action::ReadNext;
                }
                if meta.index > 0 && entries.first().is_some_and(|e| key < e.0) {
                    // Landed mid-root-block on a root that starts above
                    // the key: resynchronize to the next root block.
                    return self.resync(meta.end, *to_root);
                }
                // Last entry with first-key ≤ key covers the target
                // (everything below the very first entry falls into
                // directory bucket 0 and is answered absent there).
                let pos = entries.partition_point(|e| e.0 <= key).saturating_sub(1);
                self.probing = false;
                let at = next_occurrence(entries[pos].1, self.cycles[0], meta.end);
                doze_or_read(at, meta.end)
            }
            GroupPayload::Dir {
                entries,
                next_first,
                to_root,
            } => {
                let covers = (entries.first().is_some_and(|e| e.0 <= key)
                    && next_first.map_or(true, |nf| key < nf))
                    || (meta.index == self.num_roots && key < entries[0].0);
                if !covers {
                    // A directory bucket we were not steered to (the
                    // initial probe landed here): resynchronize.
                    return self.resync(meta.end, *to_root);
                }
                match entries.binary_search_by_key(&key, |e| e.0) {
                    Ok(i) => {
                        let target = entries[i].1;
                        self.carrier = target.channel;
                        self.probing = false;
                        let arrive = meta.end.saturating_add(self.switch_cost);
                        let cycle = self.cycles[target.channel as usize];
                        Action::DozeOn {
                            carrier: target.channel,
                            at: next_occurrence(target.offset, cycle, arrive),
                        }
                    }
                    // Provably absent: the covering directory bucket does
                    // not list the key.
                    Err(_) => Action::Finish(Verdict::not_found()),
                }
            }
            GroupPayload::Data { key: k } if *k == key => Action::Finish(Verdict::found()),
            // The directory pointed at a bucket that does not carry the
            // key: a layout bug, reported as an abort, never a silent
            // wrong answer.
            GroupPayload::Data { .. } => Action::Fail(ProtocolFault::WrongDataBucket),
        }
    }

    fn on_corrupt(&mut self, meta: BucketMeta) -> Action {
        if self.probing {
            return Action::ReadNext;
        }
        let cycle = self.cycles[self.carrier as usize];
        doze_or_read(meta.start.saturating_add(cycle), meta.end)
    }

    fn bucket_kind(&self, payload: &GroupPayload) -> BucketKind {
        match payload {
            GroupPayload::Data { .. } => BucketKind::Data,
            _ => BucketKind::Index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors_model::RetryPolicy;
    use crate::flat::FlatScheme;
    use crate::machine::{run_machine, AccessOutcome, Walk, WalkStep};
    use crate::record::Record;
    use crate::scheme::{DynSystem, QuerySlot, System};
    use bda_obs::{Phase, SpanRecorder};

    fn dataset(n: usize) -> Dataset {
        Dataset::new((0..n).map(|i| Record::keyed(i as u64 * 10)).collect()).unwrap()
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
    fn even_partition_covers_everything() {
        for n in [1usize, 5, 8, 64, 100] {
            for k in [1usize, 2, 3, 4, 8] {
                if k > n {
                    continue;
                }
                let sizes = even_partition(n, k);
                assert_eq!(sizes.len(), k);
                assert_eq!(sizes.iter().sum::<usize>(), n);
                assert!(sizes.iter().all(|&s| s > 0));
                assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            }
        }
    }

    #[test]
    fn remix_identity_on_home_channel_and_decorrelated_elsewhere() {
        assert_eq!(remix_seed(42, 0), 42);
        assert_ne!(remix_seed(42, 1), 42);
        assert_ne!(remix_seed(42, 1), remix_seed(42, 2));
        let base = ChannelModel::iid(ErrorModel::new(0.2, 7));
        assert_eq!(channel_model_for(base, 0), base);
        let derived = channel_model_for(base, 3);
        assert_eq!(derived.worst_loss(), base.worst_loss());
        assert_ne!(derived, base);
    }

    #[test]
    fn k1_striped_flat_probe_is_bit_identical() {
        let ds = dataset(16);
        let params = Params::paper();
        let single = FlatScheme.build(&ds, &params).unwrap();
        let striped = StripedScheme::new(FlatScheme, GroupConfig::SINGLE)
            .build(&ds, &params)
            .unwrap();
        for i in 0..16u64 {
            for t in [0u64, 100, 5_000, 123_456] {
                let key = Key(i * 10);
                assert_eq!(
                    DynSystem::probe(&single, key, t),
                    DynSystem::probe(&striped, key, t)
                );
            }
        }
        assert_eq!(
            DynSystem::cycle_len(&single),
            DynSystem::cycle_len(&striped)
        );
        assert_eq!(
            DynSystem::num_buckets(&single),
            DynSystem::num_buckets(&striped)
        );
    }

    #[test]
    fn striped_routing_and_switch_cost_are_exact() {
        let ds = dataset(16);
        let params = Params::paper();
        let cfg = GroupConfig::new(4, 1_000).unwrap();
        let sys = StripedScheme::new(FlatScheme, cfg)
            .build(&ds, &params)
            .unwrap();
        assert_eq!(sys.num_channels(), 4);
        // Slices of 4 records each: keys 0..30 on ch0, 40..70 on ch1, ...
        assert_eq!(sys.route(Key(0)), 0);
        assert_eq!(sys.route(Key(35)), 0, "absent key clamps to covering slice");
        assert_eq!(sys.route(Key(40)), 1);
        assert_eq!(sys.route(Key(150)), 3);
        assert_eq!(sys.route(Key(9_999)), 3);
        // A channel-0 query pays no switch; any other pays exactly 1000
        // more than the same walk started 1000 ticks later would alone.
        let home = sys.probe(Key(0), 0);
        assert_eq!(home.access, {
            let inner = sys.channel_system(0);
            run_machine(inner.channel(), inner.query(Key(0)), 0).access
        });
        let away = sys.probe(Key(40), 0);
        let inner = sys.channel_system(1);
        let raw = run_machine(inner.channel(), inner.query(Key(40)), 1_000);
        assert_eq!(away.access, raw.access + 1_000);
        assert_eq!(away.tuning, raw.tuning, "retuning radio is not listening");
    }

    #[test]
    fn striped_drivers_agree() {
        let ds = dataset(32);
        let params = Params::paper();
        let cfg = GroupConfig::new(4, 256).unwrap();
        let sys = StripedScheme::new(FlatScheme, cfg)
            .build(&ds, &params)
            .unwrap();
        let air = ChannelModel::iid(ErrorModel::new(0.2, 11));
        let policy = RetryPolicy::bounded(4);
        let mut slot = sys.make_slot_channel(air, policy);
        let mut obs = sys.make_slot(air.into(), policy, true);
        for i in [0u64, 5, 13, 31] {
            for t in [0u64, 777, 44_000] {
                let key = Key(i * 10);
                let fast = sys.probe_with_channel(key, t, air, policy);
                let fresh = drain_slot(sys.make_slot_channel(air, policy).as_mut(), key, t);
                assert_eq!(fresh, fast);
                assert_eq!(drain_slot(slot.as_mut(), key, t), fast);
                assert_eq!(drain_slot(obs.as_mut(), key, t), fast);
                let spans = obs.spans().unwrap();
                assert_eq!(spans.total_access(), fast.access);
                assert_eq!(spans.total_tuning(), fast.tuning);
                let (recorded, recorded_spans) = sys.probe_recorded_channel(key, t, air, policy);
                assert_eq!((recorded, recorded_spans), (fast, *spans));
            }
        }
    }

    #[test]
    fn indexed_group_finds_every_record_and_rejects_absent_keys() {
        let ds = dataset(64);
        let params = Params::paper();
        let cfg = GroupConfig::new(4, 512).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &params)
            .unwrap();
        assert_eq!(sys.num_channels(), 4);
        for i in 0..64u64 {
            for t in [0u64, 1_234, 98_765] {
                let out = sys.probe(Key(i * 10), t);
                assert!(out.found, "key {} at t={t} not found", i * 10);
                assert!(!out.aborted);
                assert!(out.tuning <= out.access);
            }
        }
        for absent in [5u64, 315, 999, 100_000] {
            let out = sys.probe(Key(absent), 0);
            assert!(!out.found);
            assert!(!out.aborted, "absent key must be answered, not aborted");
        }
    }

    #[test]
    fn indexed_group_spans_are_exact_and_attribute_switches() {
        let ds = dataset(64);
        let cfg = GroupConfig::new(4, 512).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &Params::paper())
            .unwrap();
        let (out, spans) =
            sys.probe_recorded_channel(Key(400), 7, ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        assert!(out.found);
        assert_eq!(spans.total_access(), out.access);
        assert_eq!(spans.total_tuning(), out.tuning);
        let sw = spans.get(Phase::ChannelSwitch);
        assert_eq!(sw.access, 512, "exactly one retune on a lossless walk");
        assert_eq!(sw.tuning, 0);
    }

    #[test]
    fn indexed_group_drivers_agree_under_loss() {
        let ds = dataset(48);
        let cfg = GroupConfig::new(3, 200).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &Params::paper())
            .unwrap();
        let model = ChannelModel::iid(ErrorModel::new(0.15, 0xFA57));
        let policy = RetryPolicy::bounded(6);
        let mut slot = sys.make_slot_channel(model, policy);
        for i in [0u64, 7, 23, 47] {
            for t in [0u64, 31_337] {
                let key = Key(i * 10);
                let fast = sys.probe_with_channel(key, t, model, policy);
                let fresh = drain_slot(sys.make_slot_channel(model, policy).as_mut(), key, t);
                assert_eq!(fresh, fast);
                assert_eq!(drain_slot(slot.as_mut(), key, t), fast);
            }
        }
    }

    /// 24 records keyed 0, 10, …, 230 over an index channel and two data
    /// channels.
    fn small_group() -> IndexedGroupSystem {
        IndexedGroupScheme::new(GroupConfig::new(3, 64).unwrap())
            .unwrap()
            .build(&dataset(24), &Params::paper())
            .unwrap()
    }

    #[test]
    fn indexed_group_gives_up_truthfully_when_the_budget_runs_out() {
        // On dead air an unbounded policy never gives up by itself; the
        // probe budget ends the walk. Having retried, the walk abandons —
        // truthfully, like the single-channel walk on the same air — and
        // does not report a protocol bug.
        let sys = small_group();
        let dead = ChannelModel::iid(ErrorModel::new(1.0, 1));
        let out = sys.probe_with_channel(Key(50), 0, dead, RetryPolicy::UNBOUNDED);
        assert!(out.retries > 0);
        assert!(out.abandoned && !out.aborted, "{out:?}");
        let flat = FlatScheme.build(&dataset(24), &Params::paper()).unwrap();
        let single = flat.probe_with_channel(Key(50), 0, dead, RetryPolicy::UNBOUNDED);
        assert!(single.abandoned && !single.aborted, "{single:?}");
    }

    #[test]
    fn indexed_group_counts_every_read_as_a_probe() {
        // `probes` counts the buckets read, corrupted ones included, on
        // the group as on a single channel: on dead air a walk allowed
        // two retries reads three buckets and gives up at the third.
        let sys = small_group();
        let dead = ChannelModel::iid(ErrorModel::new(1.0, 1));
        let policy = RetryPolicy::bounded(2);
        let out = sys.probe_with_channel(Key(50), 0, dead, policy);
        assert_eq!((out.probes, out.retries), (3, 3), "{out:?}");
        assert!(out.abandoned && !out.aborted, "{out:?}");
        let flat = FlatScheme.build(&dataset(24), &Params::paper()).unwrap();
        let single = flat.probe_with_channel(Key(50), 0, dead, policy);
        assert_eq!(single.probes, out.probes);
    }

    #[test]
    fn indexed_group_attributes_reads_by_what_they_carry() {
        // A corrupted first read is a retry, not the initial probe: the
        // next clean read is attributed by what it carries, as on every
        // walk.
        let sys = small_group();
        let air = ChannelModel::iid(ErrorModel::new(0.5, 3));
        let policy = RetryPolicy::bounded(8);
        let lost_first = (0..64u64)
            .find_map(|i| {
                let (out, spans) = sys.probe_recorded_channel(Key(130), i * 997, air, policy);
                (out.found && spans.get(Phase::InitialProbe).count == 0).then_some(spans)
            })
            .expect("some tune-in loses its first read");
        assert!(lost_first.get(Phase::Retry).count >= 1);
        assert!(lost_first.get(Phase::IndexTraversal).count >= 1);
    }

    #[test]
    fn indexed_group_backs_off_by_the_shared_rule() {
        // Under loss the back-off attempt is the retry count, as on the
        // single-channel walk, not the streak of consecutive corrupted
        // reads: the second corrupted read here follows clean ones and
        // still backs off `recovery_cycles(2)` = 2 cycles. It is a
        // directory read on the index channel, re-read at its next
        // occurrence after the back-off: 2 + 1 cycles after it started.
        let sys = small_group();
        let air = ChannelModel::iid(ErrorModel::new(0.4, 1));
        let policy = RetryPolicy::bounded(24).with_backoff_cap(8);
        assert_eq!(policy.recovery_cycles(2, false), 2);
        let (src, machine) = sys.tune(Key(130), 5);
        let mut walk =
            Walk::with_channel_recorder(src, machine, 5, air, policy, SpanRecorder::new());
        let mut corrupted = Vec::new();
        let mut steps = Vec::new();
        loop {
            let before = walk.recorder().spans.get(Phase::Retry).count;
            let step = walk.step();
            if walk.recorder().spans.get(Phase::Retry).count > before {
                corrupted.push(steps.len());
            }
            steps.push(step);
            if let WalkStep::Done(out) = step {
                assert!(out.found, "{out:?}");
                break;
            }
        }
        let second = corrupted[1];
        let WalkStep::Read { bucket, until, .. } = steps[second] else {
            panic!("a corrupted read is a read: {:?}", steps[second]);
        };
        assert_eq!(bucket, sys.num_roots(), "a directory read");
        let start = until - sys.bucket_size();
        let cycle = sys.index().cycle_len();
        assert_eq!(
            steps[second + 1],
            WalkStep::Doze {
                until: start + 3 * cycle
            }
        );
    }

    #[test]
    fn bucket_refs_point_at_the_placed_records() {
        let ds = dataset(40);
        let cfg = GroupConfig::new(5, 0).unwrap();
        let sys = IndexedGroupScheme::new(cfg)
            .unwrap()
            .build(&ds, &Params::paper())
            .unwrap();
        for i in 0..40usize {
            let r = sys.bucket_ref(Key(i as u64 * 10)).unwrap();
            assert!(r.channel >= 1 && r.channel <= 4);
            let idx = (r.offset / sys.bucket_size()) as usize;
            match &sys.data_channel(r.channel as usize - 1).bucket(idx).payload {
                GroupPayload::Data { key } => assert_eq!(*key, i as u64 * 10),
                p => panic!("ref points at non-data payload {p:?}"),
            }
        }
        assert_eq!(sys.bucket_ref(Key(5)), None);
    }
}
