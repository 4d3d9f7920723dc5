//! Channel layout and client protocol for simple hashing.

use bda_core::{
    Action, BdaError, Bucket, BucketMeta, Channel, Dataset, Key, Params, ProtocolFault,
    ProtocolMachine, Result, Scheme, System, Ticks, Verdict,
};

use crate::hash_fn::HashFn;

/// The record carried by a non-empty hash bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashEntry {
    /// The record's primary key.
    pub key: Key,
    /// The record's hash value (its home slot).
    pub hash: u64,
    /// Position of the record in the dataset (diagnostics).
    pub record_index: u32,
}

/// On-air contents of one hashing bucket: the paper's *control part*
/// (physical position, shift value or next-broadcast offset) plus the
/// *data part* (the record, absent for never-used slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPayload {
    /// Physical bucket number within the cycle.
    pub phys: u32,
    /// For the first `Na` buckets: how many buckets ahead the chain for
    /// hash value `phys` starts (0 = this very bucket). `None` in the
    /// overflow region.
    pub shift_buckets: Option<u32>,
    /// Forward byte delta from the end of this bucket to the start of the
    /// next broadcast cycle.
    pub next_cycle_delta: Ticks,
    /// The record, or `None` for an empty (allocated but unused) slot.
    pub entry: Option<HashEntry>,
}

/// One trace line's description of the bucket: slot or overflow bucket,
/// shift value, and the record (or `EMPTY`).
impl std::fmt::Display for HashPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shift_buckets {
            Some(s) => write!(f, "slot  #{} shift+{s} ", self.phys)?,
            None => write!(f, "ovfl  #{} ", self.phys)?,
        }
        match &self.entry {
            Some(e) => write!(f, "key={} h={}", e.key, e.hash),
            None => f.write_str("EMPTY"),
        }
    }
}

/// The simple hashing scheme.
///
/// ```
/// use bda_core::{Dataset, DynSystem, Params, Record, Scheme};
/// use bda_hash::HashScheme;
///
/// let dataset = Dataset::new((0..50).map(|i| Record::keyed(i * 7)).collect()).unwrap();
/// let system = HashScheme::new().build(&dataset, &Params::paper()).unwrap();
/// let out = system.probe(bda_core::Key(21), 99_999);
/// assert!(out.found);
/// // Hashing's tuning time is a handful of buckets, independent of size:
/// assert!(out.probes <= 8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HashScheme {
    hash: HashFn,
    /// Target load factor `Nr / Na`; `Na = ceil(Nr / load_factor)`.
    load_factor: f64,
}

impl Default for HashScheme {
    fn default() -> Self {
        HashScheme::new()
    }
}

impl HashScheme {
    /// Hashing with the default well-mixed function at load factor 1
    /// (`Na = Nr`, the paper's setting).
    pub fn new() -> Self {
        HashScheme {
            hash: HashFn::Mixed,
            load_factor: 1.0,
        }
    }

    /// Select the hash function.
    pub fn with_hash(mut self, hash: HashFn) -> Self {
        self.hash = hash;
        self
    }

    /// Select the load factor (`Nr / Na`), clamped to `(0, …]`. Values
    /// below 1 allocate spare slots (fewer collisions, longer cycle).
    pub fn with_load_factor(mut self, load: f64) -> Self {
        self.load_factor = if load > 0.0 { load } else { 1.0 };
        self
    }
}

/// A built simple-hashing broadcast.
#[derive(Debug)]
pub struct HashSystem {
    channel: Channel<HashPayload>,
    hash: HashFn,
    na: u64,
    num_collisions: usize,
    num_empty: usize,
}

impl HashSystem {
    /// Number of initially allocated buckets `Na`.
    pub fn na(&self) -> u64 {
        self.na
    }

    /// Number of colliding buckets `Nc` (records displaced from their home
    /// slot).
    pub fn num_collisions(&self) -> usize {
        self.num_collisions
    }

    /// Number of empty (allocated but unused) slots in the cycle.
    pub fn num_empty(&self) -> usize {
        self.num_empty
    }

    /// The hash function in use.
    pub fn hash_fn(&self) -> HashFn {
        self.hash
    }
}

impl Scheme for HashScheme {
    type System = HashSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let nr = dataset.len();
        let na = ((nr as f64 / self.load_factor).ceil() as u64).max(1);
        let slots = usize::try_from(na)
            .ok()
            .filter(|&s| s < u32::MAX as usize)
            .ok_or_else(|| BdaError::BuildError(format!("{na} hash slots overflow the cycle")))?;

        // Physical layout: the chains concatenated in slot order, each in
        // key order; an empty slot still occupies one (empty) bucket so the
        // first Na positions always exist. A counting sort lays it out:
        // count each slot's chain, turn the counts into chain starts, then
        // drop each record (in key order) at its chain's cursor.
        let homes: Vec<u32> = dataset
            .records()
            .iter()
            .map(|r| self.hash.slot(r.key, na) as u32)
            .collect();
        let mut cursor = vec![0u32; slots];
        for &h in &homes {
            cursor[h as usize] += 1;
        }
        let num_empty = cursor.iter().filter(|&&c| c == 0).count();
        let num_collisions = nr - (slots - num_empty);
        let mut at = 0u32;
        for c in &mut cursor {
            let len = (*c).max(1);
            *c = at;
            at += len;
        }
        let n = at as usize;

        let size = params.data_bucket_size();
        let mut buckets: Vec<Bucket<HashPayload>> = (0..n)
            .map(|phys| {
                Bucket::new(
                    size,
                    HashPayload {
                        phys: phys as u32,
                        // The chain start is filled in below.
                        shift_buckets: (phys < slots).then_some(0),
                        next_cycle_delta: ((n - phys - 1) as Ticks) * Ticks::from(size),
                        entry: None,
                    },
                )
            })
            .collect();
        for (phys, &start) in cursor.iter().enumerate() {
            buckets[phys].payload.shift_buckets = Some(start - phys as u32);
        }
        for (i, (r, &h)) in dataset.records().iter().zip(&homes).enumerate() {
            let at = &mut cursor[h as usize];
            buckets[*at as usize].payload.entry = Some(HashEntry {
                key: r.key,
                hash: u64::from(h),
                record_index: i as u32,
            });
            *at += 1;
        }

        Ok(HashSystem {
            channel: Channel::new(buckets)?,
            hash: self.hash,
            na,
            num_collisions,
            num_empty,
        })
    }
}

impl System for HashSystem {
    type Payload = HashPayload;
    type Machine = HashMachine;

    fn scheme_name(&self) -> &'static str {
        "hashing"
    }

    fn channel(&self) -> &Channel<HashPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<HashPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> HashMachine {
        HashMachine {
            key,
            target: self.hash.slot(key, self.na),
            state: St::Locate,
            scanned: 0,
            num_records: self.channel.num_buckets() as u32,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    /// Navigating to the hashing position (physical bucket `target`).
    Locate,
    /// Reading the bucket at the hashing position (to get the shift value).
    AtSlot,
    /// Scanning the collision chain at the shift position.
    Scan,
}

/// Client protocol for simple hashing (paper §2.2).
#[derive(Debug, Clone)]
pub struct HashMachine {
    key: Key,
    /// `H(K)` — the key's slot, which is also a physical position within
    /// the first `Na` buckets.
    target: u64,
    state: St,
    /// Chain buckets inspected so far (terminates degenerate layouts where
    /// a single chain wraps the entire cycle).
    scanned: u32,
    /// Upper bound on any chain's length.
    num_records: u32,
}

impl HashMachine {
    /// Inspect a chain bucket at the shift position.
    fn scan(&mut self, p: &HashPayload) -> Action {
        self.scanned += 1;
        match p.entry {
            Some(e) if e.hash == self.target => {
                if e.key == self.key {
                    // Reading the bucket is the download.
                    Action::Finish(Verdict::found())
                } else if self.scanned >= self.num_records {
                    // Degenerate layout: the chain wraps the whole cycle
                    // (every record shares the slot) — all inspected.
                    Action::Finish(Verdict::not_found())
                } else {
                    // A colliding record: keep listening to the chain.
                    self.state = St::Scan;
                    Action::ReadNext
                }
            }
            // Empty slot or a different hash value: chain exhausted.
            _ => Action::Finish(Verdict::not_found()),
        }
    }
}

impl ProtocolMachine<HashPayload> for HashMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.state = St::Locate;
        self.scanned = 0;
        Action::ReadNext
    }

    /// Every hashing bucket carries both a control part and (maybe) a
    /// record, so classification follows what the read *delivers*: the
    /// client's own record makes it a data read, anything else is chain
    /// navigation.
    fn bucket_kind(&self, payload: &HashPayload) -> bda_core::BucketKind {
        match payload.entry {
            Some(e) if e.key == self.key => bda_core::BucketKind::Data,
            _ => bda_core::BucketKind::Index,
        }
    }

    fn on_bucket(&mut self, p: &HashPayload, meta: BucketMeta) -> Action {
        let size = Ticks::from(meta.size);
        match self.state {
            St::Locate => {
                let phys = u64::from(p.phys);
                if p.shift_buckets.is_none() || phys > self.target {
                    // Overflow region, or the hashing position has already
                    // passed: wait for the beginning of the next broadcast
                    // and restart the protocol (costs one extra bucket read
                    // there, exactly as the paper's Tt analysis accounts).
                    Action::DozeTo(meta.end + p.next_cycle_delta)
                } else if phys == self.target {
                    // Already at the hashing position.
                    self.state = St::AtSlot;
                    self.on_slot_bucket(p, meta)
                } else {
                    // Buckets are uniform, so the arrival time of physical
                    // position `target` is pure arithmetic.
                    self.state = St::AtSlot;
                    Action::DozeTo(meta.end + (self.target - phys - 1) * size)
                }
            }
            St::AtSlot => self.on_slot_bucket(p, meta),
            St::Scan => self.scan(p),
        }
    }
}

impl HashMachine {
    fn on_slot_bucket(&mut self, p: &HashPayload, meta: BucketMeta) -> Action {
        // Both checks guard against malformed buckets reaching the client:
        // a probe that lands off its computed slot, or an allocated bucket
        // missing its shift value. Typed faults, not worker panics.
        if u64::from(p.phys) != self.target {
            return Action::Fail(ProtocolFault::OffPosition);
        }
        let shift = match p.shift_buckets {
            Some(s) => s,
            None => return Action::Fail(ProtocolFault::MissingShift),
        };
        if shift == 0 {
            // The chain starts right here.
            self.scan(p)
        } else {
            self.state = St::Scan;
            Action::DozeTo(meta.end + Ticks::from(shift - 1) * Ticks::from(meta.size))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::DynSystem;
    use bda_core::Record;

    fn ds(n: u64) -> Dataset {
        // Spread keys via a multiplier so Mixed and Modulo both behave.
        Dataset::from_unsorted(
            (0..n)
                .map(|i| Record::keyed(i.wrapping_mul(0x9E3779B97F4A7C15) >> 3))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn layout_accounting_matches_paper_identities() {
        let d = ds(500);
        let sys = HashScheme::new().build(&d, &Params::paper()).unwrap();
        // N = Na + Nc  (empty slots keep the identity: N = Nr + E,
        // Na + Nc = Na + Nr − (Na − E) = Nr + E).
        assert_eq!(
            sys.channel().num_buckets(),
            sys.na() as usize + sys.num_collisions()
        );
        assert_eq!(sys.channel().num_buckets(), 500 + sys.num_empty());
    }

    #[test]
    fn every_key_found_from_every_alignment() {
        let d = ds(200);
        let p = Params::paper();
        let sys = HashScheme::new().build(&d, &p).unwrap();
        let cycle = sys.channel().cycle_len();
        for r in d.records() {
            for s in 0..8u64 {
                let out = sys.probe(r.key, s * cycle / 8 + 31);
                assert!(out.found, "key {} from slot {s}", r.key);
                assert!(!out.aborted);
                assert!(out.tuning <= out.access);
            }
        }
    }

    #[test]
    fn absent_keys_fail_after_reading_the_chain() {
        let d = ds(200);
        let p = Params::paper();
        let sys = HashScheme::new().build(&d, &p).unwrap();
        for miss in [3u64, 777, 424242] {
            let key = Key(miss.wrapping_mul(0x2545F4914F6CDD1D));
            if d.contains(key) {
                continue;
            }
            let out = sys.probe(key, 4321);
            assert!(!out.found);
            assert!(!out.aborted);
            // Locate (≤ 2 reads) + slot read + chain scan: small.
            assert!(out.probes <= 4 + 8, "probes={}", out.probes);
        }
    }

    #[test]
    fn tuning_time_is_flat_and_small() {
        let d = ds(1000);
        let p = Params::paper();
        let sys = HashScheme::new().build(&d, &p).unwrap();
        let dt = u64::from(p.data_bucket_size());
        let cycle = sys.channel().cycle_len();
        let mut total = 0u64;
        let mut n = 0u64;
        for (i, r) in d.records().iter().enumerate().step_by(17) {
            let out = sys.probe(r.key, (i as u64) * 131 % cycle);
            assert!(out.found);
            total += out.tuning;
            n += 1;
        }
        let avg = total / n;
        // Paper: ~4 probes + average chain overflow. Poisson(1) chains give
        // ≈ 0.6 extra reads; stay well under 6 buckets.
        assert!(avg <= 6 * dt, "avg tuning {avg} vs dt {dt}");
    }

    #[test]
    fn clustered_hash_worsens_tuning_but_stays_correct() {
        let d = ds(600);
        let p = Params::paper();
        let good = HashScheme::new().build(&d, &p).unwrap();
        let bad = HashScheme::new()
            .with_hash(HashFn::Clustered { factor: 8 })
            .build(&d, &p)
            .unwrap();
        assert!(bad.num_collisions() > good.num_collisions());
        let avg = |sys: &HashSystem| {
            let cycle = sys.channel().cycle_len();
            let mut total = 0u64;
            let mut n = 0u64;
            for (i, r) in d.records().iter().enumerate().step_by(13) {
                let out = sys.probe(r.key, (i as u64) * 977 % cycle);
                assert!(out.found);
                total += out.tuning;
                n += 1;
            }
            total as f64 / n as f64
        };
        // Chains average `factor` records, so scanning adds ≈ factor/2
        // extra bucket reads on top of the ~4-probe baseline.
        let dt = f64::from(p.data_bucket_size());
        assert!(
            avg(&bad) > avg(&good) + 2.0 * dt,
            "clustering must hurt tuning: good={} bad={}",
            avg(&good),
            avg(&bad)
        );
    }

    #[test]
    fn spare_slots_reduce_collisions() {
        let d = ds(600);
        let p = Params::paper();
        let tight = HashScheme::new().build(&d, &p).unwrap();
        let roomy = HashScheme::new()
            .with_load_factor(0.5)
            .build(&d, &p)
            .unwrap();
        assert!(roomy.na() > tight.na());
        assert!(roomy.num_collisions() < tight.num_collisions());
        // Still correct.
        for r in d.records().iter().step_by(29) {
            assert!(roomy.probe(r.key, 999).found);
        }
    }

    #[test]
    fn degenerate_single_chain_terminates() {
        // Nr = 1: the only chain wraps the whole cycle; an absent key's
        // scan must terminate after inspecting every record (regression
        // test for an unbounded chain walk).
        let d = Dataset::new(vec![Record::keyed(42)]).unwrap();
        let sys = HashScheme::new().build(&d, &Params::paper()).unwrap();
        let hit = sys.probe(Key(42), 0);
        assert!(hit.found && !hit.aborted);
        let miss = sys.probe(Key(7), 0);
        assert!(!miss.found && !miss.aborted);
        assert!(miss.probes <= 3, "probes={}", miss.probes);

        // A clustered hash mapping many records to one slot exercises the
        // same bound at larger sizes.
        let d = ds(40);
        let sys = HashScheme::new()
            .with_hash(HashFn::Clustered { factor: 64 })
            .build(&d, &Params::paper())
            .unwrap();
        for r in d.records() {
            assert!(sys.probe(r.key, 99).found);
        }
        let miss = sys.probe(Key(1), 99);
        assert!(!miss.found && !miss.aborted);
    }

    #[test]
    fn malformed_buckets_fail_typed_not_panic() {
        let d = ds(16);
        let sys = HashScheme::new().build(&d, &Params::paper()).unwrap();
        let meta = BucketMeta {
            index: 0,
            start: 0,
            end: 108,
            size: 108,
            version: 0,
        };

        // A probe that lands off its computed physical slot.
        let mut m = sys.query(d.records()[0].key);
        m.state = St::AtSlot;
        let off = HashPayload {
            phys: m.target as u32 + 1,
            shift_buckets: Some(0),
            next_cycle_delta: 0,
            entry: None,
        };
        assert_eq!(
            m.on_bucket(&off, meta),
            Action::Fail(ProtocolFault::OffPosition)
        );

        // An allocated bucket missing its shift value.
        let mut m = sys.query(d.records()[0].key);
        m.state = St::AtSlot;
        let noshift = HashPayload {
            phys: m.target as u32,
            shift_buckets: None,
            next_cycle_delta: 0,
            entry: None,
        };
        assert_eq!(
            m.on_bucket(&noshift, meta),
            Action::Fail(ProtocolFault::MissingShift)
        );
    }

    #[test]
    fn shift_values_point_at_chain_starts() {
        let d = ds(300);
        let sys = HashScheme::new().build(&d, &Params::paper()).unwrap();
        let ch = sys.channel();
        for b in ch.buckets() {
            let p = &b.payload;
            if let Some(shift) = p.shift_buckets {
                let tgt = ch.bucket((p.phys + shift) as usize).payload;
                // The chain-start bucket is either empty (hash value unused)
                // or begins the chain for hash value == phys.
                if let Some(e) = tgt.entry {
                    assert!(e.hash >= u64::from(p.phys));
                    if e.hash == u64::from(p.phys) && shift > 0 {
                        // The bucket before the chain start must not belong
                        // to the same hash value.
                        let prev = ch.bucket((p.phys + shift - 1) as usize).payload;
                        assert!(prev.entry.map_or(true, |pe| pe.hash != e.hash));
                    }
                }
            }
        }
    }
}
