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

use std::collections::HashMap;

use bda_btree::optimal::optimal_r_ragged;
use bda_btree::{ControlEntry, IndexBucket, IndexEntry, IndexTree};
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

#[derive(Debug, Clone, Copy)]
enum Slot {
    Index {
        level: usize,
        node: usize,
        seg_start: bool,
    },
    Sig(usize),
    Data(usize),
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

        // --- slot sequence (distributed layout, data prefixed by sigs) ---
        let mut slots = Vec::new();
        for s in 0..tree.level(r).len() {
            let mut first = true;
            for l in 0..r {
                let child_on_path = tree.ancestor(r, s, l + 1);
                if tree.leftmost_descendant(l + 1, child_on_path, r) == s {
                    slots.push(Slot::Index {
                        level: l,
                        node: tree.ancestor(r, s, l),
                        seg_start: std::mem::take(&mut first),
                    });
                }
            }
            let mut stack = vec![(r, s)];
            while let Some((l, i)) = stack.pop() {
                slots.push(Slot::Index {
                    level: l,
                    node: i,
                    seg_start: std::mem::take(&mut first),
                });
                if !tree.is_leaf_level(l) {
                    for j in (0..tree.node(l, i).num_children()).rev() {
                        stack.push((l + 1, tree.child(l, i, j)));
                    }
                }
            }
            let (lo, hi) = tree.data_range(r, s);
            for d in lo..hi {
                slots.push(Slot::Sig(d));
                slots.push(Slot::Data(d));
            }
        }

        // --- byte geometry -------------------------------------------------
        let dt = Ticks::from(params.data_bucket_size());
        let it = Ticks::from(params.header_size + self.sig.sig_bytes);
        let size_of = |s: &Slot| match s {
            Slot::Sig(_) => it,
            _ => dt,
        };
        let mut starts = Vec::with_capacity(slots.len());
        let mut at: Ticks = 0;
        for s in &slots {
            starts.push(at);
            at += size_of(s);
        }
        let cycle = at;
        let fwd = |from_end: Ticks, to_start: Ticks| -> Ticks {
            let from = from_end % cycle;
            if to_start >= from {
                to_start - from
            } else {
                cycle - from + to_start
            }
        };

        // --- occurrence bookkeeping ----------------------------------------
        let mut index_occ: HashMap<(usize, usize), Vec<Ticks>> = HashMap::new();
        let mut data_start: Vec<Option<Ticks>> = vec![None; dataset.len()];
        let mut sig_starts: Vec<Ticks> = Vec::with_capacity(dataset.len());
        let mut seg_starts: Vec<Ticks> = Vec::new();
        for (i, s) in slots.iter().enumerate() {
            match *s {
                Slot::Index {
                    level,
                    node,
                    seg_start,
                } => {
                    index_occ.entry((level, node)).or_default().push(starts[i]);
                    if seg_start {
                        seg_starts.push(starts[i]);
                    }
                }
                Slot::Sig(_) => sig_starts.push(starts[i]),
                Slot::Data(d) => {
                    if data_start[d].replace(starts[i]).is_some() {
                        return Err(BdaError::BuildError(format!("record {d} appears twice")));
                    }
                }
            }
        }
        if seg_starts.is_empty() || sig_starts.is_empty() {
            return Err(BdaError::BuildError(
                "hybrid cycle needs index segments and signatures".into(),
            ));
        }
        for (d, s) in data_start.iter().enumerate() {
            if s.is_none() {
                return Err(BdaError::BuildError(format!("record {d} never broadcast")));
            }
        }
        // Nearest forward start in a sorted list (starts are built in
        // ascending order).
        let next_in = |sorted: &[Ticks], from_end: Ticks| -> Ticks {
            let from = from_end % cycle;
            let i = sorted.partition_point(|&s| s < from);
            let target = if i == sorted.len() {
                sorted[0]
            } else {
                sorted[i]
            };
            fwd(from_end, target)
        };
        let nearest_occ = |occs: &[Ticks], from_end: Ticks| -> Ticks {
            occs.iter()
                .map(|&o| fwd(from_end, o))
                .min()
                .expect("non-empty")
        };

        // --- payload construction ------------------------------------------
        let leaf_level = k - 1;
        let mut buckets = Vec::with_capacity(slots.len());
        for (i, slot) in slots.iter().enumerate() {
            let end = starts[i] + size_of(slot);
            let payload = match *slot {
                Slot::Data(d) => HybridPayload::Data {
                    key: dataset.record(d).key,
                    record_index: d as u32,
                    attrs: dataset.record(d).attrs.clone(),
                    next_seg_delta: next_in(&seg_starts, end),
                    next_sig_delta: next_in(&sig_starts, end),
                },
                Slot::Sig(d) => {
                    let data_end = end + dt;
                    HybridPayload::Sig {
                        sig: self
                            .sig
                            .record_signature(dataset.record(d).key, &dataset.record(d).attrs),
                        record_index: d as u32,
                        next_seg_delta: next_in(&seg_starts, end),
                        next_sig_after_data: next_in(&sig_starts, data_end),
                    }
                }
                Slot::Index {
                    level,
                    node,
                    seg_start,
                } => {
                    let tnode = tree.node(level, node);
                    let entries = (0..tnode.num_children())
                        .map(|j| {
                            let target = if level == leaf_level {
                                let (lo, _) = tree.data_range(level, node);
                                data_start[lo + j].expect("validated above")
                            } else {
                                let child = tree.child(level, node, j);
                                let occs = index_occ.get(&(level + 1, child)).ok_or_else(|| {
                                    BdaError::BuildError(format!(
                                        "child ({}, {child}) never broadcast",
                                        level + 1
                                    ))
                                })?;
                                let d = nearest_occ(occs, end);
                                return Ok(IndexEntry {
                                    max_key: tnode.child_max[j],
                                    delta: d,
                                });
                            };
                            Ok(IndexEntry {
                                max_key: tnode.child_max[j],
                                delta: fwd(end, target),
                            })
                        })
                        .collect::<Result<Vec<_>>>()?;
                    let control = (0..level)
                        .map(|a| {
                            let anc = tree.ancestor(level, node, a);
                            let anode = tree.node(a, anc);
                            ControlEntry {
                                min_key: anode.min_key,
                                max_key: anode.max_key,
                                delta: nearest_occ(
                                    index_occ.get(&(a, anc)).expect("ancestors broadcast"),
                                    end,
                                ),
                            }
                        })
                        .collect();
                    HybridPayload::Index {
                        node: IndexBucket {
                            level: level as u32,
                            node: node as u32,
                            min_key: tnode.min_key,
                            max_key: tnode.max_key,
                            segment_start: seg_start,
                            entries,
                            control,
                            next_seg_delta: next_in(&seg_starts, end),
                        },
                        next_sig_delta: next_in(&sig_starts, end),
                    }
                }
            };
            buckets.push(Bucket::new(size_of(slot) as u32, payload));
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
