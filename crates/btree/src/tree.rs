//! The broadcast B+-tree.
//!
//! A compact B+-tree over the dataset's keys, built bottom-up with a fixed
//! fanout `n` (the number of `(key, pointer)` entries an index bucket can
//! carry). Nodes are grouped in uniform chunks, so structural relations are
//! pure index arithmetic: the parent of node `i` at level `l` is `i / n`,
//! its `j`-th child is `i·n + j`, and its leftmost descendant at a deeper
//! level `t` is `i · n^(t-l)`. The paper's Fig. 1 tree (81 records, fanout
//! 3, 4 index levels) is reproduced in the tests below.

use bda_core::{BdaError, Dataset, Key, Result};

/// One index node: the maximum key of each child's subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Max key of each child subtree; `child_max.len()` = number of
    /// children. For leaf index nodes the children are data records and
    /// these are the exact record keys.
    pub child_max: Vec<Key>,
    /// Smallest key in this node's subtree.
    pub min_key: Key,
    /// Largest key in this node's subtree.
    pub max_key: Key,
}

impl TreeNode {
    /// Number of children.
    pub fn num_children(&self) -> usize {
        self.child_max.len()
    }

    /// Whether `key` falls within this node's subtree range.
    pub fn covers(&self, key: Key) -> bool {
        self.min_key <= key && key <= self.max_key
    }

    /// Index of the child whose subtree would contain `key`, i.e. the
    /// first child with `child_max ≥ key`. `None` if `key` is greater than
    /// every child's max.
    pub fn select_child(&self, key: Key) -> Option<usize> {
        let j = self.child_max.partition_point(|&m| m < key);
        (j < self.child_max.len()).then_some(j)
    }
}

/// A B+-tree over a dataset's keys, in breadth-first storage.
#[derive(Debug, Clone)]
pub struct IndexTree {
    fanout: usize,
    /// `levels\[0\]` is the root level (exactly one node); the last level is
    /// the leaf index level whose children are data records.
    levels: Vec<Vec<TreeNode>>,
    num_data: usize,
}

impl IndexTree {
    /// Build the tree for `dataset` with the given fanout (≥ 2).
    pub fn build(dataset: &Dataset, fanout: usize) -> Result<IndexTree> {
        if fanout < 2 {
            return Err(BdaError::BuildError(format!(
                "B+-tree fanout must be at least 2, got {fanout}"
            )));
        }
        let n = dataset.len();

        // Leaf index level: group records in chunks of `fanout`; each
        // level above groups the one below it.
        let leaves: Vec<TreeNode> = dataset
            .records()
            .chunks(fanout)
            .map(|chunk| TreeNode {
                child_max: chunk.iter().map(|r| r.key).collect(),
                min_key: chunk.first().expect("chunks are non-empty").key,
                max_key: chunk.last().expect("chunks are non-empty").key,
            })
            .collect();
        let mut levels = vec![leaves];
        while let Some(below) = levels.last().filter(|level| level.len() > 1) {
            let level = below
                .chunks(fanout)
                .map(|chunk| TreeNode {
                    child_max: chunk.iter().map(|c| c.max_key).collect(),
                    min_key: chunk.first().expect("chunks are non-empty").min_key,
                    max_key: chunk.last().expect("chunks are non-empty").max_key,
                })
                .collect();
            levels.push(level);
        }
        levels.reverse(); // root first
        Ok(IndexTree {
            fanout,
            levels,
            num_data: n,
        })
    }

    /// Fanout `n`.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Number of index levels `k` (root inclusive, data level exclusive).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Number of data records indexed.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Nodes at level `l` (0 = root).
    pub fn level(&self, l: usize) -> &[TreeNode] {
        &self.levels[l]
    }

    /// Node `i` at level `l`.
    pub fn node(&self, l: usize, i: usize) -> &TreeNode {
        &self.levels[l][i]
    }

    /// The root node.
    pub fn root(&self) -> &TreeNode {
        &self.levels[0][0]
    }

    /// Whether `l` is the leaf index level (its children are data records).
    pub fn is_leaf_level(&self, l: usize) -> bool {
        l + 1 == self.levels.len()
    }

    /// Total number of index nodes across all levels.
    pub fn total_nodes(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Parent node index (at level `l-1`) of node `i` at level `l ≥ 1`.
    pub fn parent(&self, _l: usize, i: usize) -> usize {
        i / self.fanout
    }

    /// Ancestor node index at level `a ≤ l` of node `i` at level `l`.
    pub fn ancestor(&self, l: usize, i: usize, a: usize) -> usize {
        debug_assert!(a <= l);
        i / self.fanout.pow((l - a) as u32)
    }

    /// Leftmost descendant of node `i` (level `l`) at deeper level `t ≥ l`.
    pub fn leftmost_descendant(&self, l: usize, i: usize, t: usize) -> usize {
        debug_assert!(t >= l);
        i * self.fanout.pow((t - l) as u32)
    }

    /// Child node index (at level `l+1`) of child slot `j` of node `i`.
    pub fn child(&self, _l: usize, i: usize, j: usize) -> usize {
        i * self.fanout + j
    }

    /// Half-open range of data record positions covered by node `i` at
    /// level `l`.
    pub fn data_range(&self, l: usize, i: usize) -> (usize, usize) {
        let span = self.fanout.pow((self.levels.len() - l) as u32);
        let start = i * span;
        let end = ((i + 1) * span).min(self.num_data);
        (start, end)
    }

    /// Reference search (not a broadcast protocol): position of `key` in
    /// the dataset, if present. Used to validate channel layouts.
    pub fn search(&self, key: Key) -> Option<usize> {
        let mut idx = 0usize;
        for l in 0..self.levels.len() {
            let node = self.node(l, idx);
            let j = node.select_child(key)?;
            if self.is_leaf_level(l) {
                return (node.child_max[j] == key).then(|| idx * self.fanout + j);
            }
            idx = self.child(l, idx, j);
        }
        unreachable!("descent always terminates at the leaf level")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::Record;

    /// Dataset of `n` records with keys 0, 3, 6, … (the paper's Fig. 1
    /// uses 81 records keyed in steps of 3).
    fn ds(n: u64) -> Dataset {
        Dataset::new((0..n).map(|i| Record::keyed(i * 3)).collect()).unwrap()
    }

    #[test]
    fn fig1_tree_shape() {
        // 81 records, fanout 3 → levels: 1 root, 3, 9, 27 leaf nodes.
        let t = IndexTree::build(&ds(81), 3).unwrap();
        assert_eq!(t.num_levels(), 4);
        assert_eq!(t.level(0).len(), 1);
        assert_eq!(t.level(1).len(), 3);
        assert_eq!(t.level(2).len(), 9);
        assert_eq!(t.level(3).len(), 27);
        assert_eq!(t.total_nodes(), 40);
        assert_eq!(t.root().min_key, Key(0));
        assert_eq!(t.root().max_key, Key(240));
        // Node a2 (level 1, index 1) covers data items 27..54 → keys 81..159.
        let a2 = t.node(1, 1);
        assert_eq!(a2.min_key, Key(81));
        assert_eq!(a2.max_key, Key(159));
        assert_eq!(t.data_range(1, 1), (27, 54));
    }

    #[test]
    fn ragged_tree_shape() {
        // 10 records, fanout 3 → leaf level has 4 nodes (3,3,3,1), then 2, then root.
        let t = IndexTree::build(&ds(10), 3).unwrap();
        assert_eq!(t.num_levels(), 3);
        assert_eq!(t.level(2).len(), 4);
        assert_eq!(t.level(1).len(), 2);
        assert_eq!(t.level(0).len(), 1);
        assert_eq!(t.node(2, 3).num_children(), 1);
        assert_eq!(t.data_range(1, 1), (9, 10));
        assert_eq!(t.data_range(0, 0), (0, 10));
    }

    #[test]
    fn single_level_tree() {
        let t = IndexTree::build(&ds(3), 4).unwrap();
        assert_eq!(t.num_levels(), 1);
        assert!(t.is_leaf_level(0));
        assert_eq!(t.root().num_children(), 3);
    }

    #[test]
    fn fanout_below_two_rejected() {
        assert!(IndexTree::build(&ds(5), 1).is_err());
        assert!(IndexTree::build(&ds(5), 0).is_err());
    }

    #[test]
    fn structural_arithmetic() {
        let t = IndexTree::build(&ds(81), 3).unwrap();
        assert_eq!(t.parent(2, 7), 2);
        assert_eq!(t.child(1, 2, 1), 7);
        assert_eq!(t.ancestor(3, 26, 0), 0);
        assert_eq!(t.ancestor(3, 26, 1), 2);
        assert_eq!(t.ancestor(3, 26, 3), 26);
        assert_eq!(t.leftmost_descendant(1, 1, 3), 9);
        assert_eq!(t.leftmost_descendant(0, 0, 2), 0);
        // parent/child are inverses.
        for i in 0..9 {
            for j in 0..3 {
                assert_eq!(t.parent(3, t.child(2, i, j)), i);
            }
        }
    }

    #[test]
    fn search_finds_every_key_and_rejects_absent() {
        for n in [1u64, 2, 5, 27, 80, 81, 100] {
            let d = ds(n);
            let t = IndexTree::build(&d, 3).unwrap();
            for i in 0..n {
                assert_eq!(t.search(Key(i * 3)), Some(i as usize), "n={n} i={i}");
                assert_eq!(t.search(Key(i * 3 + 1)), None);
            }
            assert_eq!(t.search(Key(n * 3 + 10)), None);
        }
    }

    #[test]
    fn select_child_boundaries() {
        let node = TreeNode {
            child_max: vec![Key(10), Key(20), Key(30)],
            min_key: Key(1),
            max_key: Key(30),
        };
        assert_eq!(node.select_child(Key(1)), Some(0));
        assert_eq!(node.select_child(Key(10)), Some(0));
        assert_eq!(node.select_child(Key(11)), Some(1));
        assert_eq!(node.select_child(Key(30)), Some(2));
        assert_eq!(node.select_child(Key(31)), None);
        assert!(node.covers(Key(15)));
        assert!(!node.covers(Key(0)));
    }
}
