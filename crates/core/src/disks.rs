//! Broadcast disks — popularity-stratified repetition schedules.
//!
//! Every scheme so far broadcasts each record exactly once per cycle, so a
//! client's expected wait is half the cycle regardless of how skewed the
//! workload is. Broadcast disks (Acharya et al.; the frequent-pattern
//! scheduling line of work) exploit skew: records are ranked by popularity
//! and assigned to `D` conceptual disks spinning at geometrically decreasing
//! speeds — the hottest disk's records are repeated on the air
//! `2^(D-1)`× per major cycle, the coldest disk's once — so popular records
//! have proportionally shorter inter-arrival gaps.
//!
//! The layout follows the classic minor-cycle construction. With `D` disks:
//!
//! * disk `d` (0 = hottest) spins at relative speed `2^(D-1-d)`;
//! * a major cycle consists of `M = 2^(D-1)` **minor cycles**;
//! * disk `d` is split into `2^d` equal **chunks**, and minor cycle `j`
//!   carries chunk `j mod 2^d` of every disk `d`;
//! * hence a record on disk `d` appears in every `2^d`-th minor cycle —
//!   `2^(D-1-d)` evenly spaced occurrences per major cycle.
//!
//! `D = 1` degenerates to one minor cycle carrying every record once, which
//! is **exactly** today's flat-cycle program — the bit-identity anchor the
//! golden conformance corpus checks.
//!
//! Two integration styles coexist:
//!
//! * **Interleaved scan layouts** ([`FlatDisksScheme`], and the signature
//!   counterpart in `bda-signature`): the repetition sequence is emitted
//!   directly as one long cycle. Scanning machines already identify records
//!   by `record_index` and mark coverage idempotently, so they work over
//!   repeated occurrences unmodified — including analytical fast-forward.
//! * **Chunked navigation layouts** ([`DiskScheme`] wrapping hashing or
//!   distributed B⁺-tree): each minor cycle is a complete self-contained
//!   inner-scheme program over its chunk's records. All inner pointers are
//!   relative forward deltas confined to the minor cycle, so they stay
//!   valid wherever the minor cycle sits in the major cycle; the
//!   [`DiskMachine`] routes a query to the next minor cycle containing the
//!   key's chunk, then delegates verbatim.

use std::sync::Arc;

use crate::bucket::{Bucket, BucketMeta};
use crate::channel::Channel;
use crate::error::Result;
use crate::flat::{FlatPayload, FlatSystem};
use crate::key::Key;
use crate::machine::{Action, ProtocolMachine};
use crate::params::Params;
use crate::record::{Dataset, Record};
use crate::scheme::{Scheme, System};
use crate::Ticks;
use bda_obs::BucketKind;

/// Configuration of a broadcast-disk program: how many disks to stratify
/// the dataset across. Speeds are geometric (`2^(D-1-d)` for disk `d`) and
/// record allocation gives disk `d` a share proportional to `2^d` of the
/// dataset — the hottest disk is the smallest and spins the fastest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiskConfig {
    disks: usize,
}

impl DiskConfig {
    /// A `disks`-disk configuration. `disks` is clamped to at least 1; the
    /// layout further clamps it down for datasets too small to populate
    /// every chunk (each disk `d` needs at least `2^d` records).
    pub fn new(disks: usize) -> Self {
        DiskConfig {
            disks: disks.max(1),
        }
    }

    /// Requested number of disks.
    pub fn disks(&self) -> usize {
        self.disks
    }
}

impl Default for DiskConfig {
    /// One disk — the flat-cycle identity.
    fn default() -> Self {
        DiskConfig::new(1)
    }
}

/// The repetition program of one major cycle: which records each minor
/// cycle carries, in broadcast order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepetitionSchedule {
    /// Record indices per minor cycle, each ascending (so every minor
    /// cycle's records form a valid key-sorted sub-dataset).
    minor: Vec<Vec<u32>>,
}

impl RepetitionSchedule {
    /// Number of minor cycles per major cycle (`M = 2^(D-1)`).
    pub fn num_minor_cycles(&self) -> usize {
        self.minor.len()
    }

    /// Record indices broadcast in minor cycle `j`, ascending.
    pub fn minor_cycle(&self, j: usize) -> &[u32] {
        &self.minor[j]
    }

    /// The flattened occurrence sequence of one major cycle.
    pub fn sequence(&self) -> impl Iterator<Item = u32> + '_ {
        self.minor.iter().flatten().copied()
    }

    /// Total record occurrences per major cycle (≥ the number of records).
    pub fn num_occurrences(&self) -> usize {
        self.minor.iter().map(Vec::len).sum()
    }
}

/// A popularity-stratified assignment of records to broadcast disks, plus
/// the minor-cycle schedule it induces.
#[derive(Debug, Clone)]
pub struct DiskLayout {
    num_records: usize,
    /// Effective disk count after clamping to the dataset size.
    disks: usize,
    /// Per record index: `(disk, chunk)` home.
    assign: Vec<(u8, u32)>,
    /// Per record index: occurrences per major cycle (`2^(D-1-disk)`).
    reps: Vec<u32>,
    schedule: RepetitionSchedule,
}

impl DiskLayout {
    /// Stratify `num_records` records under `config`, ranking records by
    /// the **identity** permutation: record index = popularity rank. This
    /// matches the workload generator's Zipf model, whose rank-`i` key *is*
    /// the `i`-th dataset key (see `bda-datagen`'s popularity module).
    pub fn new(num_records: usize, config: &DiskConfig) -> Self {
        let ranking: Vec<u32> = (0..num_records as u32).collect();
        DiskLayout::with_ranking(num_records, config, &ranking)
    }

    /// Stratify under an explicit popularity ranking: `ranking[r]` is the
    /// record index of popularity rank `r` (rank 0 = hottest). Must be a
    /// permutation of `0..num_records`.
    pub fn with_ranking(num_records: usize, config: &DiskConfig, ranking: &[u32]) -> Self {
        assert_eq!(ranking.len(), num_records, "ranking must cover the dataset");
        debug_assert!(
            {
                let mut seen = vec![false; num_records];
                ranking.iter().all(|&r| {
                    let ok = (r as usize) < num_records && !seen[r as usize];
                    if ok {
                        seen[r as usize] = true;
                    }
                    ok
                })
            },
            "ranking must be a permutation of 0..num_records"
        );
        assert!(num_records > 0, "empty dataset");

        // Clamp D so every disk can populate all of its chunks: disk d needs
        // at least 2^d records out of its ~n·2^d/(2^D-1) share.
        let mut disks = config.disks.min(1 + usize::BITS as usize);
        let (boundaries, assign_ranks) = loop {
            match try_partition(num_records, disks) {
                Some(parts) => break parts,
                None => disks -= 1,
            }
        };
        let _ = boundaries;

        // Per record index: (disk, chunk) and reps.
        let m = 1usize << (disks - 1);
        let mut assign = vec![(0u8, 0u32); num_records];
        let mut reps = vec![0u32; num_records];
        for (rank, &(d, c)) in assign_ranks.iter().enumerate() {
            let r = ranking[rank] as usize;
            assign[r] = (d, c);
            reps[r] = (m >> d) as u32;
        }

        // Minor cycle j carries chunk (j mod 2^d) of every disk d.
        let mut minor = vec![Vec::new(); m];
        for (r, &(d, c)) in assign.iter().enumerate() {
            let nc = 1usize << d;
            let mut j = c as usize;
            while j < m {
                minor[j].push(r as u32);
                j += nc;
            }
        }
        for cycle in &mut minor {
            cycle.sort_unstable();
        }

        DiskLayout {
            num_records,
            disks,
            assign,
            reps,
            schedule: RepetitionSchedule { minor },
        }
    }

    /// Number of records stratified.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Effective disk count (≤ the configured one for tiny datasets).
    pub fn effective_disks(&self) -> usize {
        self.disks
    }

    /// The `(disk, chunk)` home of record `r`.
    pub fn assignment(&self, r: usize) -> (u8, u32) {
        self.assign[r]
    }

    /// Occurrences of record `r` per major cycle.
    pub fn occurrences(&self, r: usize) -> u32 {
        self.reps[r]
    }

    /// Number of chunks disk `d` is split into (`2^d`).
    pub fn num_chunks(&self, d: usize) -> u32 {
        1u32 << d
    }

    /// The induced minor-cycle schedule.
    pub fn schedule(&self) -> &RepetitionSchedule {
        &self.schedule
    }
}

/// Partition `n` popularity ranks across `disks` disks and their chunks.
/// Returns per-rank `(disk, chunk)` assignments, or `None` if some chunk
/// would be empty (caller retries with fewer disks).
#[allow(clippy::type_complexity)]
fn try_partition(n: usize, disks: usize) -> Option<(Vec<usize>, Vec<(u8, u32)>)> {
    if disks == 1 {
        return Some((vec![0, n], vec![(0, 0); n]));
    }
    if disks > 32 {
        return None;
    }
    // Disk d's record share is proportional to 2^d of the total 2^D - 1.
    let weight_total: usize = (1usize << disks) - 1;
    let mut boundaries = Vec::with_capacity(disks + 1);
    for d in 0..=disks {
        let w = (1usize << d) - 1;
        boundaries.push(n * w / weight_total);
    }
    let mut assign = vec![(0u8, 0u32); n];
    for d in 0..disks {
        let lo = boundaries[d];
        let hi = boundaries[d + 1];
        let len = hi - lo;
        let nc = 1usize << d;
        if len < nc {
            return None;
        }
        for c in 0..nc {
            let clo = lo + c * len / nc;
            let chi = lo + (c + 1) * len / nc;
            for slot in &mut assign[clo..chi] {
                *slot = (d as u8, c as u32);
            }
        }
    }
    Some((boundaries, assign))
}

// ---------------------------------------------------------------------------
// Interleaved scan layout: flat broadcast disks.
// ---------------------------------------------------------------------------

/// Flat broadcast over a disk-stratified repetition schedule.
///
/// The repetition sequence is emitted directly: one data bucket per record
/// *occurrence*. The unmodified [`crate::flat::FlatMachine`] drives it —
/// coverage is keyed by `record_index` and marking is idempotent, so
/// repeated occurrences are harmless — and fast-forward eligibility is
/// preserved (the cycle is still a frozen bucket sequence). At `D = 1` the
/// built program is bit-identical to [`crate::flat::FlatScheme`]'s.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlatDisksScheme {
    config: DiskConfig,
}

impl FlatDisksScheme {
    /// Flat broadcast stratified across `config` disks.
    pub fn new(config: DiskConfig) -> Self {
        FlatDisksScheme { config }
    }
}

impl Scheme for FlatDisksScheme {
    type System = FlatSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let layout = DiskLayout::new(dataset.len(), &self.config);
        let size = params.data_bucket_size();
        let buckets = layout
            .schedule()
            .sequence()
            .map(|r| {
                Bucket::new(
                    size,
                    FlatPayload {
                        key: dataset.record(r as usize).key,
                        record_index: r,
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

// ---------------------------------------------------------------------------
// Chunked navigation layout: generic minor-cycle concatenation.
// ---------------------------------------------------------------------------

/// Byte geometry of a major cycle: where each minor cycle starts, and which
/// minor cycles carry which chunk.
#[derive(Debug)]
pub struct DiskGeometry {
    /// Start offset of each minor cycle within the major cycle.
    minor_starts: Vec<Ticks>,
    /// Major-cycle length in bytes.
    major: Ticks,
    /// Chunks per disk (`2^d`).
    num_chunks: Vec<u32>,
}

impl DiskGeometry {
    /// Whether the program is a single minor cycle (`D = 1`) — the
    /// degenerate case where the inner protocol runs verbatim.
    pub fn single(&self) -> bool {
        self.minor_starts.len() == 1
    }

    /// Number of minor cycles.
    pub fn num_minor_cycles(&self) -> usize {
        self.minor_starts.len()
    }

    /// The next minor-cycle boundary at or after absolute time `t` whose
    /// minor cycle carries chunk `target.1` of disk `target.0`. Returns the
    /// minor-cycle index and the absolute boundary time (saturating near
    /// `Ticks::MAX`, like the channel's occurrence arithmetic).
    pub fn next_entry(&self, target: (u8, u32), t: Ticks) -> (usize, Ticks) {
        let m = self.minor_starts.len();
        let pos = t % self.major;
        let nc = self.num_chunks[target.0 as usize] as usize;
        let want = target.1 as usize;
        let mut best: Option<(usize, Ticks)> = None;
        for j in (want..m).step_by(nc) {
            let s = self.minor_starts[j];
            let delta = if s >= pos {
                s - pos
            } else {
                self.major - pos + s
            };
            if best.map_or(true, |(_, bd)| delta < bd) {
                best = Some((j, delta));
            }
        }
        let (j, delta) = best.expect("every chunk occurs in some minor cycle");
        (j, t.saturating_add(delta))
    }
}

/// Wrap any navigation scheme into a broadcast-disk program: each minor
/// cycle is a complete inner-scheme build over its chunk's records, and the
/// major cycle is their concatenation.
///
/// Soundness rests on a property all workspace navigation schemes share:
/// machines steer exclusively by *relative forward deltas* (`meta.end +
/// delta`) emitted by their own builder, never by absolute cycle positions.
/// A minor cycle's pointers therefore stay valid wherever the minor cycle
/// sits inside the major cycle — provided the client enters at the minor
/// cycle's start and the walk stays inside it, which the routing machine
/// guarantees (and re-establishes after any corrupted read).
#[derive(Debug, Clone, Copy)]
pub struct DiskScheme<S> {
    inner: S,
    config: DiskConfig,
}

impl<S> DiskScheme<S> {
    /// Stratify `inner`'s programs across `config` disks.
    pub fn new(inner: S, config: DiskConfig) -> Self {
        DiskScheme { inner, config }
    }
}

impl<S: Scheme> Scheme for DiskScheme<S>
where
    <S::System as System>::Payload: Clone,
{
    type System = DiskSystem<S::System>;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        let layout = DiskLayout::new(dataset.len(), &self.config);
        let sched = layout.schedule();
        let m = sched.num_minor_cycles();

        let mut subs = Vec::with_capacity(m);
        let mut buckets = Vec::new();
        let mut minor_starts = Vec::with_capacity(m);
        let mut at: Ticks = 0;
        for j in 0..m {
            let records: Vec<Record> = sched
                .minor_cycle(j)
                .iter()
                .map(|&r| dataset.record(r as usize).clone())
                .collect();
            let sub_ds = Dataset::new(records)?;
            let sub = self.inner.build(&sub_ds, params)?;
            minor_starts.push(at);
            at += sub.channel().cycle_len();
            buckets.extend(sub.channel().buckets().iter().cloned());
            subs.push(sub);
        }

        let name = subs[0].scheme_name();
        let geo = DiskGeometry {
            minor_starts,
            major: at,
            num_chunks: (0..layout.effective_disks())
                .map(|d| layout.num_chunks(d))
                .collect(),
        };
        Ok(DiskSystem {
            channel: Channel::new(buckets)?,
            subs: Arc::new(subs),
            geo: Arc::new(geo),
            keys: Arc::new(dataset.keys().collect()),
            homes: Arc::new((0..dataset.len()).map(|r| layout.assignment(r)).collect()),
            name,
        })
    }
}

/// A built broadcast-disk program wrapping inner-scheme minor cycles.
#[derive(Debug)]
pub struct DiskSystem<S: System> {
    channel: Channel<S::Payload>,
    /// One complete inner system per minor cycle; machines are respawned
    /// from here after routing (and after corruption recovery).
    subs: Arc<Vec<S>>,
    geo: Arc<DiskGeometry>,
    /// Dataset keys in key order — the routing directory's lookup column.
    keys: Arc<Vec<Key>>,
    /// Per record index: `(disk, chunk)` home.
    homes: Arc<Vec<(u8, u32)>>,
    name: &'static str,
}

impl<S: System> DiskSystem<S> {
    /// The major cycle's byte geometry.
    pub fn geometry(&self) -> &DiskGeometry {
        &self.geo
    }

    /// The inner system built for minor cycle `j`.
    pub fn sub(&self, j: usize) -> &S {
        &self.subs[j]
    }
}

impl<S: System> System for DiskSystem<S> {
    type Payload = S::Payload;
    type Machine = DiskMachine<S>;

    fn scheme_name(&self) -> &'static str {
        self.name
    }

    fn channel(&self) -> &Channel<S::Payload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<S::Payload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> DiskMachine<S> {
        self.query_from(key, 0)
    }

    /// The routing table is schedule knowledge: it locates minor cycles
    /// from `origin`, where a churning program's epoch puts its cycle 0.
    fn query_from(&self, key: Key, origin: Ticks) -> DiskMachine<S> {
        // Route to the key's home chunk. Absent keys route to the home of
        // their key-order successor (clamped): any chunk works for them —
        // the key is absent from *every* chunk, and the chosen sub-program's
        // index proves that absence — so the choice only needs to be
        // deterministic.
        let r = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => i.min(self.keys.len() - 1),
        };
        DiskMachine {
            key,
            target: self.homes[r],
            subs: Arc::clone(&self.subs),
            geo: Arc::clone(&self.geo),
            origin,
            inner: None,
            spent: None,
            chosen: 0,
            seeking: false,
        }
    }
}

/// Routing protocol machine for [`DiskSystem`]: doze to the next minor
/// cycle carrying the key's chunk, then run the inner scheme's machine
/// verbatim from that boundary.
///
/// Like the hashing machine's initial-probe arithmetic, the routing table
/// (minor-cycle boundaries and the key→chunk directory) is a-priori
/// schedule knowledge of constant size — the broadcast-disk analogue of a
/// published program guide; it is *navigation* metadata only, never proof
/// of presence (absence is always concluded by the inner index on the air).
#[derive(Debug)]
pub struct DiskMachine<S: System> {
    key: Key,
    target: (u8, u32),
    subs: Arc<Vec<S>>,
    geo: Arc<DiskGeometry>,
    /// Absolute time at which the program's cycle 0 began.
    origin: Ticks,
    inner: Option<S::Machine>,
    /// The last inner machine discarded, by a re-route or with the query
    /// before this one: the next inner machine takes over its storage.
    spent: Option<S::Machine>,
    /// Minor cycle being routed to (valid while `seeking`).
    chosen: usize,
    seeking: bool,
}

impl<S: System> DiskMachine<S> {
    /// Doze to the next boundary of a minor cycle carrying the target
    /// chunk, discarding any in-flight inner machine. Also the corruption
    /// recovery path: an inner machine's own recovery logic assumes its
    /// sub-cycle's geometry and must not be trusted across chunk
    /// boundaries, so recovery always re-routes.
    fn seek(&mut self, t: Ticks) -> Action {
        let (j, s) = self.geo.next_entry(self.target, t - self.origin);
        self.chosen = j;
        if let Some(m) = self.inner.take() {
            self.spent = Some(m);
        }
        self.seeking = true;
        Action::DozeTo(self.origin + s)
    }

    /// A fresh inner machine for minor cycle `j` that takes over the
    /// spent one's storage.
    fn spawn(&mut self, j: usize) -> S::Machine {
        let mut m = self.subs[j].query(self.key);
        if let Some(spent) = &mut self.spent {
            m.reuse(spent);
        }
        m
    }
}

impl<S: System> ProtocolMachine<S::Payload> for DiskMachine<S> {
    fn start(&mut self, tune_in: Ticks) -> Action {
        if self.geo.single() {
            // D = 1: the single minor cycle *is* the inner program, and its
            // machine handles arbitrary mid-cycle tune-in natively (wrapping
            // pointers land in the same program) — run it verbatim for
            // bit-identical outcomes.
            let mut m = self.spawn(0);
            let action = m.start(tune_in);
            self.inner = Some(m);
            self.seeking = false;
            return action;
        }
        self.seek(tune_in)
    }

    fn on_bucket(&mut self, payload: &S::Payload, meta: BucketMeta) -> Action {
        if self.seeking {
            // Landed on the first bucket of the chosen minor cycle: spawn
            // the inner machine as if it tuned in exactly at the boundary.
            let mut m = self.spawn(self.chosen);
            let started = m.start(meta.start);
            self.seeking = false;
            let action = match started {
                Action::ReadNext => m.on_bucket(payload, meta),
                other => other,
            };
            self.inner = Some(m);
            return action;
        }
        self.inner
            .as_mut()
            .expect("bucket delivered before start")
            .on_bucket(payload, meta)
    }

    fn on_corrupt(&mut self, meta: BucketMeta) -> Action {
        if self.geo.single() {
            return self
                .inner
                .as_mut()
                .expect("corrupt bucket before start")
                .on_corrupt(meta);
        }
        self.seek(meta.end)
    }

    fn bucket_kind(&self, payload: &S::Payload) -> BucketKind {
        match &self.inner {
            Some(m) if !self.seeking => m.bucket_kind(payload),
            // The chunk-entry landing bucket is consumed as navigation.
            _ => BucketKind::Index,
        }
    }

    /// The spent query's last inner machine serves this one's first.
    fn reuse(&mut self, spent: &mut Self) {
        self.spent = spent.inner.take().or_else(|| spent.spent.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatScheme;
    use crate::record::Record;
    use crate::scheme::DynSystem;

    fn ds(n: u64) -> Dataset {
        Dataset::new((0..n).map(|i| Record::keyed(i * 3)).collect()).unwrap()
    }

    #[test]
    fn single_disk_layout_is_the_identity_program() {
        let l = DiskLayout::new(10, &DiskConfig::new(1));
        assert_eq!(l.effective_disks(), 1);
        assert_eq!(l.schedule().num_minor_cycles(), 1);
        assert_eq!(
            l.schedule().sequence().collect::<Vec<_>>(),
            (0..10).collect::<Vec<_>>()
        );
        for r in 0..10 {
            assert_eq!(l.occurrences(r), 1);
            assert_eq!(l.assignment(r), (0, 0));
        }
    }

    #[test]
    fn three_disk_layout_has_expected_shape() {
        let l = DiskLayout::new(70, &DiskConfig::new(3));
        assert_eq!(l.effective_disks(), 3);
        let s = l.schedule();
        assert_eq!(s.num_minor_cycles(), 4);
        // Disk shares: 1/7, 2/7, 4/7 of 70 = 10, 20, 40 records.
        assert_eq!(l.assignment(0), (0, 0));
        assert_eq!(l.assignment(9), (0, 0));
        assert_eq!(l.assignment(10).0, 1);
        assert_eq!(l.assignment(29).0, 1);
        assert_eq!(l.assignment(30).0, 2);
        assert_eq!(l.assignment(69).0, 2);
        // Repetition counts: 4×, 2×, 1×.
        assert_eq!(l.occurrences(0), 4);
        assert_eq!(l.occurrences(15), 2);
        assert_eq!(l.occurrences(50), 1);
        // Each minor cycle: all of disk 0, half of disk 1, quarter of disk 2.
        for j in 0..4 {
            assert_eq!(s.minor_cycle(j).len(), 10 + 10 + 10);
        }
        // Total occurrences = 10·4 + 20·2 + 40·1.
        assert_eq!(s.num_occurrences(), 120);
    }

    #[test]
    fn tiny_datasets_clamp_the_disk_count() {
        // 2 records cannot fill 3 disks (needs ≥ 7); they can fill 2
        // (needs ≥ 3)? No: disk 1 needs 2 chunks from a 2·2/3 ≈ 1-record
        // share — clamps to 1 disk.
        let l = DiskLayout::new(2, &DiskConfig::new(3));
        assert_eq!(l.effective_disks(), 1);
        let l = DiskLayout::new(1, &DiskConfig::new(2));
        assert_eq!(l.effective_disks(), 1);
        // 7 records exactly fill 3 disks: 1 + 2 + 4.
        let l = DiskLayout::new(7, &DiskConfig::new(3));
        assert_eq!(l.effective_disks(), 3);
        assert_eq!(l.assignment(0), (0, 0));
        assert_eq!(l.occurrences(0), 4);
        assert_eq!(l.occurrences(6), 1);
    }

    #[test]
    fn flat_disks_at_d1_is_bit_identical_to_flat() {
        let d = ds(32);
        let p = Params::paper();
        let base = FlatScheme.build(&d, &p).unwrap();
        let disks = FlatDisksScheme::new(DiskConfig::new(1))
            .build(&d, &p)
            .unwrap();
        assert_eq!(base.channel().buckets(), disks.channel().buckets());
        let dt = u64::from(p.data_bucket_size());
        for k in 0..32u64 {
            for t in [0, dt / 2, 7 * dt + 3, 31 * dt] {
                assert_eq!(base.probe(Key(k * 3), t), disks.probe(Key(k * 3), t));
            }
        }
        assert_eq!(base.probe(Key(1), 5), disks.probe(Key(1), 5));
    }

    #[test]
    fn flat_disks_finds_every_key_and_rejects_absent_ones() {
        let d = ds(70);
        let p = Params::paper();
        let sys = FlatDisksScheme::new(DiskConfig::new(3))
            .build(&d, &p)
            .unwrap();
        assert_eq!(sys.num_buckets(), 120, "10·4 + 20·2 + 40·1 occurrences");
        let cycle = sys.cycle_len();
        for k in 0..70u64 {
            for s in 0..7 {
                let out = sys.probe(Key(k * 3), s * cycle / 7 + 11);
                assert!(out.found, "key {k} slot {s}");
                assert!(!out.aborted);
            }
        }
        let out = sys.probe(Key(1), 13);
        assert!(!out.found);
        assert!(!out.aborted);
    }

    #[test]
    fn hot_records_wait_less_on_average() {
        let d = ds(70);
        let p = Params::paper();
        let sys = FlatDisksScheme::new(DiskConfig::new(3))
            .build(&d, &p)
            .unwrap();
        let cycle = sys.cycle_len();
        let avg = |key: Key| {
            let mut total = 0u64;
            for s in 0..200u64 {
                total += sys.probe(key, s * cycle / 200 + 1).access;
            }
            total / 200
        };
        let hot = avg(Key(0));
        let cold = avg(Key(69 * 3));
        assert!(
            hot * 2 < cold,
            "hot record (4×/cycle) must wait far less: hot={hot} cold={cold}"
        );
    }

    #[test]
    fn geometry_routing_picks_the_nearest_valid_boundary() {
        let geo = DiskGeometry {
            minor_starts: vec![0, 100, 210, 330],
            major: 460,
            num_chunks: vec![1, 2, 4],
        };
        // Disk 0 chunk 0 occurs in every minor cycle.
        assert_eq!(geo.next_entry((0, 0), 0), (0, 0));
        assert_eq!(geo.next_entry((0, 0), 5), (1, 100));
        assert_eq!(geo.next_entry((0, 0), 331), (0, 460));
        // Disk 2 chunk 3 occurs only in minor cycle 3.
        assert_eq!(geo.next_entry((2, 3), 0), (3, 330));
        assert_eq!(geo.next_entry((2, 3), 331), (3, 330 + 460));
        // Disk 1 chunk 1 occurs in minor cycles 1 and 3.
        assert_eq!(geo.next_entry((1, 1), 150), (3, 330));
        assert_eq!(geo.next_entry((1, 1), 350), (1, 460 + 100));
    }
}
