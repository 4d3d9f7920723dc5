//! Shared channel materializer for B+-tree schemes.
//!
//! `(1,m)` and distributed indexing differ only in *which* tree nodes are
//! broadcast *where*; everything else — uniform bucket sizing, occurrence
//! bookkeeping, pointer (offset) resolution, next-segment tables — is the
//! same. Each scheme produces an abstract slot sequence ([`Slot`]) and
//! [`materialize`] turns it into a fully wired [`Channel`].
//!
//! ## Size accounting
//!
//! Both schemes use uniform buckets of [`Params::data_bucket_size`] bytes
//! (`Dt`), as the paper's analysis assumes. An index bucket's local index
//! carries at most `n =` [`Params::index_entries_per_bucket`] entries of
//! `key_size + ptr_size` bytes, which fits the bucket by construction; the
//! small control index (≤ `k−1` entries) and the next-segment pointer are
//! charged to the per-bucket header budget.

use bda_core::{BdaError, Bucket, Channel, Dataset, Params, Result, Ticks};

use crate::payload::{BTreePayload, ControlEntry, DataBucket, IndexBucket, IndexEntry};
use crate::tree::IndexTree;

/// One position in the broadcast cycle, before pointer resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// An index bucket carrying tree node `node` of level `level`.
    Index {
        /// Tree level (0 = root).
        level: usize,
        /// Node index within the level.
        node: usize,
        /// Whether this bucket opens an index segment.
        segment_start: bool,
    },
    /// A data bucket carrying record `index` of the dataset.
    Data {
        /// Record position in key order.
        index: usize,
    },
}

/// How far `to` lies ahead of `from` on a cycle `cycle` long: `to − from`,
/// or, when `to` is behind `from`, the way round through the cycle's end.
/// Both points lie in `0..=cycle`, so no division is needed.
pub fn gap(from: Ticks, to: Ticks, cycle: Ticks) -> Ticks {
    if to >= from {
        to - from
    } else {
        to + cycle - from
    }
}

/// The [`gap`] from `from` to the first of `sorted` (ascending points of
/// the cycle) at or after it, wrapping to the first of them; `None` when
/// `sorted` is empty.
pub fn gap_to_next(sorted: &[Ticks], from: Ticks, cycle: Ticks) -> Option<Ticks> {
    let i = sorted.partition_point(|&o| o < from);
    let to = *sorted.get(i).or_else(|| sorted.first())?;
    Some(gap(from, to, cycle))
}

/// Where a cycle airs each node of an index tree and each record, for
/// resolving index buckets' pointers. Every node's occurrences are kept in
/// cycle order, a counting sort of the cycle's index buckets by node, so
/// the next occurrence of a node after any point is one binary search over
/// its own occurrences.
#[derive(Debug)]
pub struct Occurrences<'a> {
    tree: &'a IndexTree,
    /// Each record's one start.
    data_at: &'a [Ticks],
    cycle: Ticks,
    /// Number of the first node of each level, counting root-first.
    level_base: Vec<usize>,
    /// Node `id`'s occurrences are `at[first[id]..first[id + 1]]`.
    first: Vec<usize>,
    at: Vec<Ticks>,
}

impl<'a> Occurrences<'a> {
    /// Index `nodes`, the `(level, node, start)` of every index bucket of a
    /// cycle `cycle` long in cycle order, over `tree`, whose records start
    /// at `data_at`.
    pub fn new<I>(tree: &'a IndexTree, nodes: I, data_at: &'a [Ticks], cycle: Ticks) -> Self
    where
        I: Iterator<Item = (usize, usize, Ticks)> + Clone,
    {
        let mut level_base = Vec::with_capacity(tree.num_levels());
        let mut count = 0;
        for l in 0..tree.num_levels() {
            level_base.push(count);
            count += tree.level(l).len();
        }
        let mut first = vec![0; count + 1];
        for (level, node, _) in nodes.clone() {
            first[level_base[level] + node + 1] += 1;
        }
        for id in 0..count {
            first[id + 1] += first[id];
        }
        let mut next = first[..count].to_vec();
        let mut at = vec![0; first[count]];
        for (level, node, t) in nodes {
            let slot = &mut next[level_base[level] + node];
            at[*slot] = t;
            *slot += 1;
        }
        Occurrences {
            tree,
            data_at,
            cycle,
            level_base,
            first,
            at,
        }
    }

    /// The [`gap_to_next`] from `from` to node `node` of level `level`;
    /// `None` when the node is never broadcast.
    fn gap_to(&self, level: usize, node: usize, from: Ticks) -> Option<Ticks> {
        let id = self.level_base[level] + node;
        let occurrences = &self.at[self.first[id]..self.first[id + 1]];
        gap_to_next(occurrences, from, self.cycle)
    }

    /// The local index of node `node` of level `level`, read from a bucket
    /// that ends at `from`: each child's key bound and the distance to its
    /// next broadcast (a leaf's children are records). With `with_control`
    /// also its control index, the distance to each ancestor's next
    /// broadcast, root first.
    pub fn pointers(
        &self,
        level: usize,
        node: usize,
        from: Ticks,
        with_control: bool,
    ) -> Result<(Vec<IndexEntry>, Vec<ControlEntry>)> {
        let tree = self.tree;
        let leaf = tree.is_leaf_level(level);
        let child_max = &tree.node(level, node).child_max;
        let mut entries = Vec::with_capacity(child_max.len());
        for (j, &max_key) in child_max.iter().enumerate() {
            let child = tree.child(level, node, j);
            let delta = if leaf {
                gap(from, self.data_at[child], self.cycle)
            } else {
                self.gap_to(level + 1, child, from).ok_or_else(|| {
                    BdaError::BuildError(format!(
                        "child node ({}, {child}) never broadcast",
                        level + 1
                    ))
                })?
            };
            entries.push(IndexEntry { max_key, delta });
        }

        let mut control = Vec::new();
        if with_control && level > 0 {
            control.reserve_exact(level);
            let mut anc = node;
            for a in (0..level).rev() {
                anc = tree.parent(a + 1, anc);
                let anode = tree.node(a, anc);
                control.push(ControlEntry {
                    min_key: anode.min_key,
                    max_key: anode.max_key,
                    delta: self
                        .gap_to(a, anc, from)
                        .expect("ancestors of broadcast nodes are broadcast"),
                });
            }
            control.reverse();
        }
        Ok((entries, control))
    }
}

/// Resolve a slot sequence into a broadcast channel: compute every local
/// pointer, control pointer and next-segment offset as forward byte deltas.
///
/// With `with_control = false` (used by `(1,m)`) no control indexes are
/// emitted.
pub fn materialize(
    tree: &IndexTree,
    dataset: &Dataset,
    params: &Params,
    slots: &[Slot],
    with_control: bool,
) -> Result<Channel<BTreePayload>> {
    params.validate()?;
    let n_slots = slots.len();
    if n_slots == 0 {
        return Err(BdaError::EmptyChannel);
    }
    let size = Ticks::from(params.data_bucket_size());
    let start = |pos: usize| pos as Ticks * size;
    let cycle = start(n_slots);

    // --- occurrence bookkeeping -----------------------------------------
    const ABSENT: Ticks = Ticks::MAX;
    let mut data_at = vec![ABSENT; dataset.len()];
    let mut seg_starts = Vec::new();
    for (pos, slot) in slots.iter().enumerate() {
        match *slot {
            Slot::Index { segment_start, .. } => {
                if segment_start {
                    seg_starts.push(start(pos));
                }
            }
            Slot::Data { index } => {
                if std::mem::replace(&mut data_at[index], start(pos)) != ABSENT {
                    return Err(BdaError::BuildError(format!(
                        "record {index} appears more than once in the cycle"
                    )));
                }
            }
        }
    }
    if seg_starts.is_empty() {
        return Err(BdaError::BuildError(
            "cycle has no index-segment start bucket".into(),
        ));
    }
    if let Some(i) = data_at.iter().position(|&p| p == ABSENT) {
        return Err(BdaError::BuildError(format!(
            "record {i} never appears in the cycle"
        )));
    }
    let occ = Occurrences::new(
        tree,
        slots
            .iter()
            .enumerate()
            .filter_map(|(pos, slot)| match *slot {
                Slot::Index { level, node, .. } => Some((level, node, start(pos))),
                Slot::Data { .. } => None,
            }),
        &data_at,
        cycle,
    );

    // --- payload construction --------------------------------------------
    // Every distance runs from the end of bucket `pos` to the start of its
    // target; a target at or before `pos` is reached in the next cycle.
    let mut buckets = Vec::with_capacity(n_slots);
    for (pos, slot) in slots.iter().enumerate() {
        let end = start(pos + 1);
        let next_seg_delta =
            gap_to_next(&seg_starts, end, cycle).expect("the cycle has a segment start");
        let payload = match *slot {
            Slot::Data { index } => BTreePayload::Data(DataBucket {
                key: dataset.record(index).key,
                record_index: index as u32,
                next_seg_delta,
            }),
            Slot::Index {
                level,
                node,
                segment_start,
            } => {
                let (entries, control) = occ.pointers(level, node, end, with_control)?;
                let tnode = tree.node(level, node);
                BTreePayload::Index(IndexBucket {
                    level: level as u32,
                    node: node as u32,
                    min_key: tnode.min_key,
                    max_key: tnode.max_key,
                    segment_start,
                    entries,
                    control,
                    next_seg_delta,
                })
            }
        };
        buckets.push(Bucket::new(size as u32, payload));
    }

    Channel::new(buckets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{Key, Record};

    fn ds(n: u64) -> Dataset {
        Dataset::new((0..n).map(|i| Record::keyed(i * 3)).collect()).unwrap()
    }

    fn small_params() -> Params {
        Params::paper()
    }

    #[test]
    fn fwd_buckets_geometry() {
        // Whole buckets from the end of bucket `p` (point `p + 1`) of a
        // 10-bucket cycle to the start of bucket `to`.
        let fwd_buckets = |p: Ticks, to: Ticks| gap(p + 1, to, 10);
        assert_eq!(fwd_buckets(0, 1), 0); // immediately next
        assert_eq!(fwd_buckets(0, 0), 9); // self, next cycle
        assert_eq!(fwd_buckets(9, 0), 0); // wrap
        assert_eq!(fwd_buckets(3, 1), 7);
    }

    #[test]
    fn gap_geometry() {
        assert_eq!(gap(2, 5, 10), 3);
        assert_eq!(gap(5, 5, 10), 0);
        assert_eq!(gap(8, 2, 10), 4); // through the cycle's end
        assert_eq!(gap_to_next(&[2, 5, 8], 6, 10), Some(2));
        assert_eq!(gap_to_next(&[2, 5, 8], 9, 10), Some(3));
        assert_eq!(gap_to_next(&[2, 5, 8], 5, 10), Some(0));
        assert_eq!(gap_to_next(&[2, 5, 8], 10, 10), Some(2)); // from the cycle's end
        assert_eq!(gap_to_next(&[], 5, 10), None);
    }

    #[test]
    fn duplicate_or_missing_records_rejected() {
        let d = ds(3);
        let tree = IndexTree::build(&d, 3).unwrap();
        let dup = vec![
            Slot::Index {
                level: 0,
                node: 0,
                segment_start: true,
            },
            Slot::Data { index: 0 },
            Slot::Data { index: 0 },
        ];
        assert!(materialize(&tree, &d, &small_params(), &dup, false).is_err());

        let missing = vec![
            Slot::Index {
                level: 0,
                node: 0,
                segment_start: true,
            },
            Slot::Data { index: 0 },
        ];
        assert!(materialize(&tree, &d, &small_params(), &missing, false).is_err());
    }

    #[test]
    fn requires_a_segment_start() {
        let d = ds(2);
        let tree = IndexTree::build(&d, 3).unwrap();
        let slots = vec![
            Slot::Index {
                level: 0,
                node: 0,
                segment_start: false,
            },
            Slot::Data { index: 0 },
            Slot::Data { index: 1 },
        ];
        assert!(materialize(&tree, &d, &small_params(), &slots, false).is_err());
    }

    #[test]
    fn single_segment_layout_pointers() {
        // Tree over 3 records with fanout 3: one (leaf) node.
        let d = ds(3);
        let tree = IndexTree::build(&d, 3).unwrap();
        let slots = vec![
            Slot::Index {
                level: 0,
                node: 0,
                segment_start: true,
            },
            Slot::Data { index: 0 },
            Slot::Data { index: 1 },
            Slot::Data { index: 2 },
        ];
        let ch = materialize(&tree, &d, &small_params(), &slots, true).unwrap();
        let size = Ticks::from(small_params().data_bucket_size());
        assert_eq!(ch.num_buckets(), 4);
        assert_eq!(ch.cycle_len(), 4 * size);

        let idx = ch.bucket(0).payload.as_index().unwrap();
        assert!(idx.segment_start);
        assert_eq!(idx.entries.len(), 3);
        // Leaf entries point straight at data buckets 1, 2, 3.
        assert_eq!(idx.entries[0].delta, 0);
        assert_eq!(idx.entries[1].delta, size);
        assert_eq!(idx.entries[2].delta, 2 * size);
        assert_eq!(idx.entries[1].max_key, Key(3));
        // Root bucket has no control index.
        assert!(idx.control.is_empty());
        // Next segment from the root bucket is the root itself, one cycle on.
        assert_eq!(idx.next_seg_delta, 3 * size);

        // Data buckets point at the next segment (= bucket 0).
        let d0 = ch.bucket(1).payload.as_data().unwrap();
        assert_eq!(d0.key, Key(0));
        assert_eq!(d0.next_seg_delta, 2 * size);
        let d2 = ch.bucket(3).payload.as_data().unwrap();
        assert_eq!(d2.next_seg_delta, 0);
    }
}
