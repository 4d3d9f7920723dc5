//! Distributed indexing: replicated top levels, non-replicated subtrees,
//! control indexes.
//!
//! From Imielinski et al. (SIGMOD'94), §2.1 of the paper: the index tree is
//! split into a *replicated part* (the top `r` levels) and a
//! *non-replicated part* (the rest). "Every replicated index bucket is
//! broadcast before the first occurrence of each of its children. … Every
//! non-replicated index node is broadcast exactly once, preceding the data
//! segment containing the corresponding data records."
//!
//! The broadcast cycle therefore consists of one *(index segment, data
//! segment)* pair per node at level `r`: the index segment holds the chain
//! of replicated ancestors due at this position, followed by the preorder
//! of the level-`r` node's subtree; the data segment holds the records that
//! subtree covers. With the paper's Fig. 1 tree (fanout 3, replicated
//! levels `I` and `a*`), the segments are exactly the example's
//! `I a1 b1 c1 c2 c3 | data …`, `a1 b2 c4 c5 c6 | data …`, ….
//!
//! Clients that tune in at the "wrong" index segment recover via the
//! control index (see [`crate::payload::ControlEntry`]).

use bda_core::{Channel, Dataset, Key, Params, Result, Scheme, System};

use crate::layout::{materialize, Slot};
use crate::machine::BTreeMachine;
use crate::optimal::optimal_r_ragged;
use crate::payload::BTreePayload;
use crate::tree::IndexTree;

/// The distributed indexing scheme.
///
/// `r = None` (the default) selects the access-time-optimal number of
/// replicated levels, which is what the paper simulates ("we use the
/// optimal value of r as defined in \[6\]"); a fixed `r` can be forced for
/// ablation studies.
/// ```
/// use bda_btree::DistributedScheme;
/// use bda_core::{Dataset, DynSystem, Params, Record, Scheme};
///
/// let dataset = Dataset::new((0..100).map(|i| Record::keyed(i * 2)).collect()).unwrap();
/// let system = DistributedScheme::new().build(&dataset, &Params::paper()).unwrap();
/// let hit = system.probe(bda_core::Key(42), 123_456);
/// assert!(hit.found);
/// assert!(hit.tuning < hit.access); // the client dozed between probes
/// assert!(!system.probe(bda_core::Key(43), 123_456).found);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct DistributedScheme {
    r: Option<usize>,
}

impl DistributedScheme {
    /// Distributed indexing with the optimal `r`.
    pub fn new() -> Self {
        DistributedScheme { r: None }
    }

    /// Distributed indexing with a fixed number of replicated levels
    /// (clamped to `k − 1` at build time).
    pub fn with_r(r: usize) -> Self {
        DistributedScheme { r: Some(r) }
    }
}

/// A built distributed-indexing broadcast.
#[derive(Debug)]
pub struct DistributedSystem {
    channel: Channel<BTreePayload>,
    num_levels: u32,
    r: usize,
    num_segments: usize,
}

impl DistributedSystem {
    /// The number of replicated levels actually used.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Number of (index segment, data segment) pairs per cycle.
    pub fn num_segments(&self) -> usize {
        self.num_segments
    }

    /// Number of index levels `k`.
    pub fn num_levels(&self) -> usize {
        self.num_levels as usize
    }
}

impl Scheme for DistributedScheme {
    type System = DistributedSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let fanout = params.index_entries_per_bucket();
        let tree = IndexTree::build(dataset, fanout)?;
        let k = tree.num_levels();
        let r = self
            .r
            .unwrap_or_else(|| optimal_r_ragged(fanout, dataset.len()))
            .min(k - 1);

        let num_segments = tree.level(r).len();
        let slots = segment_slots(&tree, r);
        let channel = materialize(&tree, dataset, params, &slots, true)?;
        Ok(DistributedSystem {
            channel,
            num_levels: k as u32,
            r,
            num_segments,
        })
    }
}

/// The distributed cycle over `tree` with `r` replicated levels, in
/// broadcast order: one (index segment, data segment) pair per node at
/// level `r`.
pub fn segment_slots(tree: &IndexTree, r: usize) -> Vec<Slot> {
    let num_segments = tree.level(r).len();
    let mut slots = Vec::with_capacity(tree.total_nodes() + r * num_segments + tree.num_data());
    let mut stack = Vec::new();
    for s in 0..num_segments {
        let mut first_in_segment = true;
        let mut push_index = |slots: &mut Vec<Slot>, level: usize, node: usize| {
            slots.push(Slot::Index {
                level,
                node,
                segment_start: std::mem::take(&mut first_in_segment),
            });
        };

        // Replicated ancestors: ancestor at level l is due here iff this
        // segment is the first occurrence of its child on the path, i.e.
        // iff `s` is the leftmost level-r descendant of that child.
        for l in 0..r {
            let child_on_path = tree.ancestor(r, s, l + 1);
            if tree.leftmost_descendant(l + 1, child_on_path, r) == s {
                push_index(&mut slots, l, tree.ancestor(r, s, l));
            }
        }

        // Non-replicated part: preorder of the subtree rooted at (r, s).
        stack.push((r, s));
        while let Some((l, i)) = stack.pop() {
            push_index(&mut slots, l, i);
            if !tree.is_leaf_level(l) {
                for j in (0..tree.node(l, i).num_children()).rev() {
                    stack.push((l + 1, tree.child(l, i, j)));
                }
            }
        }

        // Data segment: the records under (r, s).
        let (lo, hi) = tree.data_range(r, s);
        slots.extend((lo..hi).map(|index| Slot::Data { index }));
    }
    slots
}

impl System for DistributedSystem {
    type Payload = BTreePayload;
    type Machine = BTreeMachine;

    fn scheme_name(&self) -> &'static str {
        "distributed"
    }

    fn channel(&self) -> &Channel<BTreePayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<BTreePayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> BTreeMachine {
        BTreeMachine::new(key, self.num_levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::DynSystem;
    use bda_core::Record;

    fn ds(n: u64) -> Dataset {
        Dataset::new((0..n).map(|i| Record::keyed(i * 3)).collect()).unwrap()
    }

    /// Parameters giving exactly fanout 3, so we can reproduce Fig. 1.
    fn fanout3_params() -> Params {
        // data bucket = header + key + record = 8 + 25 + 75 = 108;
        // entries/bucket = (108 - 8) / (25 + 4) = 3.
        let mut p = Params::paper();
        p.record_size = 75;
        assert_eq!(p.index_entries_per_bucket(), 3);
        p
    }

    /// Extract the (level, node) sequence of index buckets per segment.
    fn segments_of(sys: &DistributedSystem) -> Vec<Vec<(u32, u32)>> {
        let mut segs: Vec<Vec<(u32, u32)>> = Vec::new();
        for b in sys.channel().buckets() {
            if let BTreePayload::Index(ib) = &b.payload {
                if ib.segment_start {
                    segs.push(Vec::new());
                }
                segs.last_mut().unwrap().push((ib.level, ib.node));
            }
        }
        segs
    }

    #[test]
    fn fig1_paper_example_layout() {
        // 81 records, fanout 3, r = 2 (levels I and a replicated) — the
        // paper's running example. First two index segments must be
        // I a1 b1 c1 c2 c3 and a1 b2 c4 c5 c6.
        let d = ds(81);
        let sys = DistributedScheme::with_r(2)
            .build(&d, &fanout3_params())
            .unwrap();
        assert_eq!(sys.r(), 2);
        assert_eq!(sys.num_segments(), 9);
        let segs = segments_of(&sys);
        assert_eq!(segs.len(), 9);
        // Levels: 0 = I, 1 = a, 2 = b, 3 = c.
        assert_eq!(
            segs[0],
            vec![(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)]
        );
        assert_eq!(segs[1], vec![(1, 0), (2, 1), (3, 3), (3, 4), (3, 5)]);
        assert_eq!(segs[2], vec![(1, 0), (2, 2), (3, 6), (3, 7), (3, 8)]);
        // Segment 4 restarts with the root: I a2 b4 ….
        assert_eq!(
            segs[3],
            vec![(0, 0), (1, 1), (2, 3), (3, 9), (3, 10), (3, 11)]
        );
    }

    #[test]
    fn replicated_node_occurrences_equal_child_counts() {
        let d = ds(81);
        let sys = DistributedScheme::with_r(2)
            .build(&d, &fanout3_params())
            .unwrap();
        let mut counts = std::collections::HashMap::new();
        for b in sys.channel().buckets() {
            if let BTreePayload::Index(ib) = &b.payload {
                *counts.entry((ib.level, ib.node)).or_insert(0u32) += 1;
            }
        }
        // Root (3 children) broadcast 3×; each a-node (3 children) 3×;
        // b and c nodes once.
        assert_eq!(counts[&(0, 0)], 3);
        for a in 0..3 {
            assert_eq!(counts[&(1, a)], 3);
        }
        for b in 0..9 {
            assert_eq!(counts[&(2, b)], 1);
        }
        for c in 0..27 {
            assert_eq!(counts[&(3, c)], 1);
        }
        // Total buckets: 3 + 9 + 9 + 27 index + 81 data = 129.
        assert_eq!(sys.channel().num_buckets(), 129);
    }

    #[test]
    fn every_key_found_from_every_segment_alignment() {
        let d = ds(81);
        let p = fanout3_params();
        let sys = DistributedScheme::with_r(2).build(&d, &p).unwrap();
        let cycle = sys.channel().cycle_len();
        // Probe every key from a grid of tune-in times covering all
        // segments and mid-bucket offsets.
        for i in 0..81u64 {
            for s in 0..16u64 {
                let t = s * cycle / 16 + 53;
                let out = sys.probe(Key(i * 3), t);
                assert!(out.found, "key {} from t={}", i * 3, t);
                assert!(!out.aborted);
                assert!(out.access < 3 * cycle);
            }
        }
    }

    #[test]
    fn absent_keys_fail_fast() {
        let d = ds(81);
        let p = fanout3_params();
        let sys = DistributedScheme::with_r(2).build(&d, &p).unwrap();
        let k = sys.num_levels() as u64;
        for miss in [1u64, 100, 242, 9999] {
            for t in [0u64, 5000, 50_000] {
                let out = sys.probe(Key(miss), t);
                assert!(!out.found);
                assert!(!out.aborted);
                // Initial bucket + climbs (≤ r) + descent (≤ k).
                assert!(
                    u64::from(out.probes) <= k + sys.r() as u64 + 2,
                    "probes={}",
                    out.probes
                );
            }
        }
    }

    #[test]
    fn r_zero_single_segment() {
        let d = ds(30);
        let p = fanout3_params();
        let sys = DistributedScheme::with_r(0).build(&d, &p).unwrap();
        assert_eq!(sys.r(), 0);
        assert_eq!(sys.num_segments(), 1);
        for i in 0..30u64 {
            let out = sys.probe(Key(i * 3), 7777);
            assert!(out.found);
        }
    }

    #[test]
    fn default_r_is_optimal_and_works_on_paper_scale() {
        let d = ds(2000);
        let p = Params::paper();
        let sys = DistributedScheme::new().build(&d, &p).unwrap();
        assert!(sys.r() < sys.num_levels());
        for i in (0..2000u64).step_by(97) {
            let out = sys.probe(Key(i * 3), i * 977);
            assert!(out.found);
            assert!(!out.aborted);
        }
    }

    #[test]
    fn tuning_stays_near_k_probes() {
        let d = ds(729);
        let p = fanout3_params();
        let sys = DistributedScheme::with_r(2).build(&d, &p).unwrap();
        let dt = u64::from(p.data_bucket_size());
        let k = sys.num_levels() as u64;
        let cycle = sys.channel().cycle_len();
        let mut total = 0u64;
        let mut n = 0u64;
        for i in (0..729u64).step_by(11) {
            for s in 0..8u64 {
                let out = sys.probe(Key(i * 3), s * cycle / 8 + 3);
                assert!(out.found);
                total += out.tuning;
                n += 1;
            }
        }
        let avg = total / n;
        // Paper: Tt = (k + 3/2)·Dt. Climbing via the control index can add
        // a probe or two; allow (k + 3)·Dt.
        assert!(avg <= (k + 3) * dt, "avg tuning {avg}, k={k}, dt={dt}");
    }

    #[test]
    fn ragged_trees_work() {
        // Sizes that do not fill the tree exercise ragged segment layout.
        for n in [1u64, 2, 4, 10, 26, 28, 100, 250] {
            let d = ds(n);
            let p = fanout3_params();
            for r in 0..IndexTree::build(&d, 3).unwrap().num_levels() {
                let sys = DistributedScheme::with_r(r).build(&d, &p).unwrap();
                for i in 0..n {
                    let out = sys.probe(Key(i * 3), 12345);
                    assert!(out.found, "n={n} r={r} key={}", i * 3);
                    assert!(!out.aborted);
                }
                let out = sys.probe(Key(1), 12345);
                assert!(!out.found);
            }
        }
    }
}
