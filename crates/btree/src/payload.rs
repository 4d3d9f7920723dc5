//! On-air bucket contents for B+-tree indexing schemes.
//!
//! Everything a client learns, it learns from these payloads: all offsets
//! are **forward byte deltas measured from the end of the bucket that
//! carries them** (a delta of 0 points at the immediately following
//! bucket), exactly like the arrival-time offsets the paper describes.

use bda_core::{Key, Ticks};

/// One local-index entry: "keys up to `max_key` live under the child
/// bucket starting `delta` bytes after this bucket ends".
///
/// In a leaf index bucket the children are data buckets and `max_key` is
/// the exact record key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Largest key in the child's subtree (exact key at the leaf level).
    pub max_key: Key,
    /// Forward byte delta from the end of this bucket to the child's next
    /// occurrence.
    pub delta: Ticks,
}

/// One control-index entry (distributed indexing only): the key range of an
/// ancestor node and the forward delta to that ancestor's next on-air
/// occurrence.
///
/// The paper: "The control index consists of pointers that point at the
/// next occurrence of the buckets containing the parent nodes in its index
/// path" (§2.1). Carrying the ancestor's key range lets the client pick the
/// deepest ancestor that covers the requested key and jump straight to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlEntry {
    /// Smallest key under the ancestor.
    pub min_key: Key,
    /// Largest key under the ancestor.
    pub max_key: Key,
    /// Forward byte delta to the ancestor's next occurrence.
    pub delta: Ticks,
}

/// An index bucket: one B+-tree node on the air.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexBucket {
    /// Tree level (0 = root).
    pub level: u32,
    /// Node index within the level (diagnostics).
    pub node: u32,
    /// Smallest key in this node's subtree.
    pub min_key: Key,
    /// Largest key in this node's subtree.
    pub max_key: Key,
    /// Whether this bucket opens an index segment (the bucket that
    /// "offset to next index segment" pointers land on).
    pub segment_start: bool,
    /// Local index: one entry per child, in key order.
    pub entries: Vec<IndexEntry>,
    /// Control index: ancestors ordered root-first; empty for `(1,m)`
    /// indexing and for the root bucket.
    pub control: Vec<ControlEntry>,
    /// Forward delta to the start of the next index segment.
    pub next_seg_delta: Ticks,
}

/// A data bucket: one record on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBucket {
    /// The record's primary key.
    pub key: Key,
    /// Position of the record in the dataset (diagnostics).
    pub record_index: u32,
    /// Forward delta to the start of the next index segment (data buckets
    /// carry it too — Fig. 2 of the paper).
    pub next_seg_delta: Ticks,
}

/// Bucket payload for both B+-tree schemes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTreePayload {
    /// An index (tree node) bucket.
    Index(IndexBucket),
    /// A data (record) bucket.
    Data(DataBucket),
}

/// One trace line's description of the node: level, node index, key
/// range, fan-out, control entries and the segment-start mark.
impl std::fmt::Display for IndexBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index L{} n{} [{}..{}] {} entries",
            self.level,
            self.node,
            self.min_key,
            self.max_key,
            self.entries.len()
        )?;
        if !self.control.is_empty() {
            write!(f, ", {} control", self.control.len())?;
        }
        if self.segment_start {
            f.write_str(", SEG-START")?;
        }
        Ok(())
    }
}

/// One trace line's description of the bucket (index node or record).
impl std::fmt::Display for BTreePayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BTreePayload::Index(ib) => ib.fmt(f),
            BTreePayload::Data(db) => write!(f, "data  key={} rec#{}", db.key, db.record_index),
        }
    }
}

impl BTreePayload {
    /// Whether this bucket opens an index segment.
    pub fn is_segment_start(&self) -> bool {
        matches!(self, BTreePayload::Index(b) if b.segment_start)
    }

    /// The index bucket, if this is one.
    pub fn as_index(&self) -> Option<&IndexBucket> {
        match self {
            BTreePayload::Index(b) => Some(b),
            BTreePayload::Data(_) => None,
        }
    }

    /// The data bucket, if this is one.
    pub fn as_data(&self) -> Option<&DataBucket> {
        match self {
            BTreePayload::Data(b) => Some(b),
            BTreePayload::Index(_) => None,
        }
    }
}

impl IndexBucket {
    /// Whether `key` falls inside this node's subtree range.
    pub fn covers(&self, key: Key) -> bool {
        self.min_key <= key && key <= self.max_key
    }

    /// Local-index lookup: the entry whose child subtree would contain
    /// `key` (first entry with `max_key ≥ key`).
    pub fn select_entry(&self, key: Key) -> Option<&IndexEntry> {
        let j = self.entries.partition_point(|e| e.max_key < key);
        self.entries.get(j)
    }

    /// Control-index lookup: the deepest ancestor whose range covers
    /// `key`. Entries are stored root-first, so the *last* covering entry
    /// is the deepest.
    pub fn select_control(&self, key: Key) -> Option<&ControlEntry> {
        self.control
            .iter()
            .rev()
            .find(|c| c.min_key <= key && key <= c.max_key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket() -> IndexBucket {
        IndexBucket {
            level: 1,
            node: 2,
            min_key: Key(10),
            max_key: Key(60),
            segment_start: true,
            entries: vec![
                IndexEntry {
                    max_key: Key(20),
                    delta: 0,
                },
                IndexEntry {
                    max_key: Key(40),
                    delta: 512,
                },
                IndexEntry {
                    max_key: Key(60),
                    delta: 1024,
                },
            ],
            control: vec![
                ControlEntry {
                    min_key: Key(0),
                    max_key: Key(100),
                    delta: 9000,
                },
                ControlEntry {
                    min_key: Key(10),
                    max_key: Key(80),
                    delta: 3000,
                },
            ],
            next_seg_delta: 2048,
        }
    }

    #[test]
    fn select_entry_picks_covering_child() {
        let b = bucket();
        assert_eq!(b.select_entry(Key(10)).unwrap().max_key, Key(20));
        assert_eq!(b.select_entry(Key(20)).unwrap().max_key, Key(20));
        assert_eq!(b.select_entry(Key(21)).unwrap().max_key, Key(40));
        assert_eq!(b.select_entry(Key(60)).unwrap().max_key, Key(60));
        assert!(b.select_entry(Key(61)).is_none());
    }

    #[test]
    fn select_control_prefers_deepest_cover() {
        let b = bucket();
        // Key 90: only the root entry (0..100) covers it.
        assert_eq!(b.select_control(Key(90)).unwrap().delta, 9000);
        // Key 50: both cover; deepest (10..80) wins.
        assert_eq!(b.select_control(Key(50)).unwrap().delta, 3000);
        // Key 200: nobody covers.
        assert!(b.select_control(Key(200)).is_none());
    }

    #[test]
    fn payload_accessors() {
        let idx = BTreePayload::Index(bucket());
        assert!(idx.is_segment_start());
        assert!(idx.as_index().is_some());
        assert!(idx.as_data().is_none());

        let data = BTreePayload::Data(DataBucket {
            key: Key(5),
            record_index: 0,
            next_seg_delta: 7,
        });
        assert!(!data.is_segment_start());
        assert!(data.as_data().is_some());
        assert!(data.as_index().is_none());
    }
}
