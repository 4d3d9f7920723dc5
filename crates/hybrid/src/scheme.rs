//! Channel layout for the hybrid scheme.
//!
//! The cycle is the distributed-indexing layout with every data bucket
//! prefixed by its record-signature bucket:
//!
//! ```text
//! [replicated ancestors | subtree preorder | (sig data) (sig data) …] × segments
//! ```
//!
//! Buckets are *not* uniform (signature buckets are much smaller than
//! index/data buckets), so all pointers are computed over byte offsets
//! rather than bucket counts.

use bda_btree::distributed::segment_slots;
use bda_btree::layout::{gap_to_next, Occurrences, Slot};
use bda_btree::optimal::optimal_r_ragged;
use bda_btree::{IndexBucket, IndexTree};
use bda_core::machine::run_machine;
use bda_core::{
    AccessOutcome, BdaError, Bucket, Channel, Dataset, Key, Params, Result, Scheme, System, Ticks,
};
use bda_signature::{QueryTarget, SigParams};

use crate::machines::{HybridAttrMachine, HybridKeyMachine};
use crate::payload::HybridPayload;

/// The hybrid index-tree + signature scheme.
///
/// ```
/// use bda_core::{Dataset, DynSystem, Params, Record, Scheme};
/// use bda_hybrid::HybridScheme;
///
/// let dataset = Dataset::new(
///     (0..60).map(|i| Record::new(bda_core::Key(i * 3), vec![i * 3, i + 900])).collect(),
/// ).unwrap();
/// let system = HybridScheme::new().build(&dataset, &Params::paper()).unwrap();
/// // Key lookups descend the tree (a handful of probes)…
/// let key_hit = system.probe(bda_core::Key(33), 7_777);
/// assert!(key_hit.found && key_hit.probes <= 8);
/// // …while attribute queries use the signatures:
/// assert!(system.probe_attr(911, 7_777).found);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridScheme {
    r: Option<usize>,
    sig: SigParams,
}

impl HybridScheme {
    /// Hybrid scheme with the optimal replication depth and default
    /// signature parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Force a fixed number of replicated levels.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = Some(r);
        self
    }
}

/// A built hybrid broadcast.
#[derive(Debug)]
pub struct HybridSystem {
    channel: Channel<HybridPayload>,
    num_levels: u32,
    r: usize,
    sig: SigParams,
    num_records: u32,
    data_size: Ticks,
}

impl HybridSystem {
    /// Number of index levels `k`.
    pub fn num_levels(&self) -> usize {
        self.num_levels as usize
    }

    /// Replicated levels in use.
    pub fn r(&self) -> usize {
        self.r
    }

    /// The signature parameters in use.
    pub fn sig_params(&self) -> SigParams {
        self.sig
    }

    /// Start an attribute query: retrieve the first record carrying
    /// attribute `value`.
    pub fn attr_query(&self, value: u64) -> HybridAttrMachine {
        HybridAttrMachine::new(
            QueryTarget::Attribute(value),
            self.sig.attr_signature(value),
            self.num_records,
            self.data_size,
        )
    }

    /// Run one complete attribute query (convenience over
    /// [`bda_core::machine::run_machine`]).
    pub fn probe_attr(&self, value: u64, tune_in: Ticks) -> AccessOutcome {
        run_machine(&self.channel, self.attr_query(value), tune_in)
    }
}

impl Scheme for HybridScheme {
    type System = HybridSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let fanout = params.index_entries_per_bucket();
        let tree = IndexTree::build(dataset, fanout)?;
        let k = tree.num_levels();
        let r = self
            .r
            .unwrap_or_else(|| optimal_r_ragged(fanout, dataset.len()))
            .min(k - 1);

        // --- byte geometry: the distributed layout, each data bucket
        // prefixed by its record's signature bucket ------------------------
        let slots = segment_slots(&tree, r);
        let dt = Ticks::from(params.data_bucket_size());
        let it = Ticks::from(params.header_size + self.sig.sig_bytes);
        const ABSENT: Ticks = Ticks::MAX;
        let mut starts = Vec::with_capacity(slots.len());
        let mut data_start = vec![ABSENT; dataset.len()];
        let mut sig_starts = Vec::with_capacity(dataset.len());
        let mut seg_starts = Vec::new();
        let mut at: Ticks = 0;
        for slot in &slots {
            starts.push(at);
            match *slot {
                Slot::Index { segment_start, .. } => {
                    if segment_start {
                        seg_starts.push(at);
                    }
                    at += dt;
                }
                Slot::Data { index: d } => {
                    sig_starts.push(at);
                    at += it;
                    if std::mem::replace(&mut data_start[d], at) != ABSENT {
                        return Err(BdaError::BuildError(format!("record {d} appears twice")));
                    }
                    at += dt;
                }
            }
        }
        let cycle = at;
        if seg_starts.is_empty() || sig_starts.is_empty() {
            return Err(BdaError::BuildError(
                "hybrid cycle needs index segments and signatures".into(),
            ));
        }
        if let Some(d) = data_start.iter().position(|&s| s == ABSENT) {
            return Err(BdaError::BuildError(format!("record {d} never broadcast")));
        }
        let occ = Occurrences::new(
            &tree,
            slots
                .iter()
                .zip(&starts)
                .filter_map(|(slot, &start)| match *slot {
                    Slot::Index { level, node, .. } => Some((level, node, start)),
                    Slot::Data { .. } => None,
                }),
            &data_start,
            cycle,
        );

        // --- payload construction: every delta runs from the end of its
        // bucket, in the order the buckets air ------------------------------
        let next = |starts: &[Ticks], from| {
            gap_to_next(starts, from, cycle).expect("segment and signature starts are non-empty")
        };
        let mut buckets = Vec::with_capacity(slots.len() + dataset.len());
        for (slot, &start) in slots.iter().zip(&starts) {
            match *slot {
                Slot::Data { index: d } => {
                    let record = dataset.record(d);
                    let end = start + it;
                    let data_end = end + dt;
                    buckets.push(Bucket::new(
                        it as u32,
                        HybridPayload::Sig {
                            sig: self.sig.record_signature(record.key, &record.attrs),
                            record_index: d as u32,
                            next_seg_delta: next(&seg_starts, end),
                            next_sig_after_data: next(&sig_starts, data_end),
                        },
                    ));
                    buckets.push(Bucket::new(
                        dt as u32,
                        HybridPayload::Data {
                            key: record.key,
                            record_index: d as u32,
                            attrs: record.attrs.clone(),
                            next_seg_delta: next(&seg_starts, data_end),
                            next_sig_delta: next(&sig_starts, data_end),
                        },
                    ));
                }
                Slot::Index {
                    level,
                    node,
                    segment_start,
                } => {
                    let end = start + dt;
                    let (entries, control) = occ.pointers(level, node, end, true)?;
                    let tnode = tree.node(level, node);
                    buckets.push(Bucket::new(
                        dt as u32,
                        HybridPayload::Index {
                            node: IndexBucket {
                                level: level as u32,
                                node: node as u32,
                                min_key: tnode.min_key,
                                max_key: tnode.max_key,
                                segment_start,
                                entries,
                                control,
                                next_seg_delta: next(&seg_starts, end),
                            },
                            next_sig_delta: next(&sig_starts, end),
                        },
                    ));
                }
            }
        }

        Ok(HybridSystem {
            channel: Channel::new(buckets)?,
            num_levels: k as u32,
            r,
            sig: self.sig,
            num_records: dataset.len() as u32,
            data_size: dt,
        })
    }
}

impl System for HybridSystem {
    type Payload = HybridPayload;
    type Machine = HybridKeyMachine;

    fn scheme_name(&self) -> &'static str {
        "hybrid"
    }

    fn channel(&self) -> &Channel<HybridPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<HybridPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> HybridKeyMachine {
        HybridKeyMachine::new(key, self.num_levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::DynSystem;
    use bda_core::Record;

    fn ds(n: u64) -> Dataset {
        Dataset::new(
            (0..n)
                .map(|i| Record::new(Key(i * 3), vec![i * 3, i + 5000, i % 11]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn layout_pairs_each_record_with_a_signature() {
        let d = ds(50);
        let sys = HybridScheme::new().build(&d, &Params::paper()).unwrap();
        let mut sigs = 0;
        let mut datas = 0;
        let mut prev_was_sig = false;
        for b in sys.channel().buckets() {
            match &b.payload {
                HybridPayload::Sig { .. } => {
                    assert!(!prev_was_sig, "signatures never adjacent");
                    prev_was_sig = true;
                    sigs += 1;
                }
                HybridPayload::Data { .. } => {
                    assert!(prev_was_sig, "every data bucket follows its signature");
                    prev_was_sig = false;
                    datas += 1;
                }
                HybridPayload::Index { .. } => {
                    assert!(!prev_was_sig, "no index bucket between sig and data");
                }
            }
        }
        assert_eq!(sigs, 50);
        assert_eq!(datas, 50);
    }

    #[test]
    fn key_queries_find_every_key_from_every_alignment() {
        let d = ds(120);
        let sys = HybridScheme::new().build(&d, &Params::paper()).unwrap();
        let cycle = sys.channel().cycle_len();
        for i in 0..120u64 {
            for s in 0..6u64 {
                let out = sys.probe(Key(i * 3), s * cycle / 6 + 19);
                assert!(out.found, "key {} slot {s}", i * 3);
                assert!(!out.aborted);
            }
        }
        // Absent keys fail fast through the index.
        for miss in [1u64, 44, 9999] {
            let out = sys.probe(Key(miss), 777);
            assert!(!out.found);
            assert!(out.probes <= 10);
        }
    }

    #[test]
    fn key_queries_never_pay_for_signatures() {
        let d = ds(200);
        let p = Params::paper();
        let sys = HybridScheme::new().build(&d, &p).unwrap();
        let dt = u64::from(p.data_bucket_size());
        let k = sys.num_levels() as u64;
        let cycle = sys.channel().cycle_len();
        let mut worst = 0;
        for i in (0..200u64).step_by(7) {
            let out = sys.probe(Key(i * 3), i * 131 % cycle);
            assert!(out.found);
            worst = worst.max(out.tuning);
        }
        // Same tuning class as pure distributed indexing: the signature
        // buckets are dozed over. (One initial read may be a signature
        // bucket, hence the small slack.)
        assert!(worst <= (k + 4) * dt, "worst tuning {worst}");
    }

    #[test]
    fn attr_queries_work_from_every_alignment() {
        let d = ds(120);
        let sys = HybridScheme::new().build(&d, &Params::paper()).unwrap();
        let cycle = sys.channel().cycle_len();
        for i in (0..120u64).step_by(5) {
            for s in 0..5u64 {
                let out = sys.probe_attr(i + 5000, s * cycle / 5 + 7);
                assert!(out.found, "attr {} slot {s}", i + 5000);
                assert!(!out.aborted);
            }
        }
        // Absent attribute: full signature scan, then give up.
        let out = sys.probe_attr(123_456_789, 99);
        assert!(!out.found);
        assert!(!out.aborted);
        assert!(out.probes >= 120);
    }

    #[test]
    fn attr_scan_dozes_over_index_segments() {
        let d = ds(300);
        let p = Params::paper();
        let sys = HybridScheme::new().build(&d, &p).unwrap();
        // An absent attribute forces a complete scan; tuning should be
        // dominated by signature bytes, not index or data buckets.
        let out = sys.probe_attr(987_654_321, 0);
        assert!(!out.found);
        let it = u64::from(p.header_size) + u64::from(sys.sig_params().sig_bytes);
        let budget = 300 * it // every signature
            + 10 * u64::from(p.data_bucket_size()); // alignment + false drops
        assert!(out.tuning <= budget, "tuning {} > {budget}", out.tuning);
    }

    #[test]
    fn cycle_is_distributed_plus_signatures() {
        let d = ds(100);
        let p = Params::paper();
        let hybrid = HybridScheme::new().build(&d, &p).unwrap();
        let pure = bda_btree::DistributedScheme::with_r(hybrid.r())
            .build(&d, &p)
            .unwrap();
        let it = u64::from(p.header_size) + u64::from(hybrid.sig_params().sig_bytes);
        assert_eq!(
            hybrid.channel().cycle_len(),
            bda_core::DynSystem::cycle_len(&pure) + 100 * it
        );
    }
}
