//! On-air bucket contents for the hybrid scheme.

use bda_btree::IndexBucket;
use bda_core::{Key, Ticks};
use bda_signature::Signature;

/// Bucket payload for the hybrid index-tree + signature broadcast.
///
/// Every variant carries two navigation offsets (forward byte deltas from
/// the end of the bucket): `next_seg_delta` toward the next *index segment*
/// (used by key clients orienting after tune-in) and `next_sig_delta`
/// toward the next *signature bucket* (used by attribute clients aligning
/// after tune-in and skipping index segments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HybridPayload {
    /// A B+-tree index bucket (its own `next_seg_delta` lives inside).
    Index {
        /// The tree node, identical in shape to distributed indexing.
        node: IndexBucket,
        /// Forward delta to the next signature bucket.
        next_sig_delta: Ticks,
    },
    /// A record-signature bucket, immediately preceding its data bucket.
    Sig {
        /// The record's superimposed signature.
        sig: Signature,
        /// Position of the signed record (diagnostics).
        record_index: u32,
        /// Forward delta to the next index segment.
        next_seg_delta: Ticks,
        /// Forward delta from the end of the *following data bucket* to
        /// the next signature bucket (0 when the next record's signature
        /// is adjacent; spans index segments otherwise).
        next_sig_after_data: Ticks,
    },
    /// A data bucket.
    Data {
        /// The record's primary key.
        key: Key,
        /// Position of the record (diagnostics).
        record_index: u32,
        /// Attribute values (attribute clients verify matches on these).
        attrs: Box<[u64]>,
        /// Forward delta to the next index segment.
        next_seg_delta: Ticks,
        /// Forward delta to the next signature bucket.
        next_sig_delta: Ticks,
    },
}

/// One trace line's description of the bucket: the index node as the
/// B+-tree schemes print it, or the signature or record.
impl std::fmt::Display for HybridPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HybridPayload::Index { node, .. } => node.fmt(f),
            HybridPayload::Sig {
                sig, record_index, ..
            } => write!(f, "sig   rec#{record_index} weight={}", sig.weight()),
            HybridPayload::Data {
                key, record_index, ..
            } => write!(f, "data  key={key} rec#{record_index}"),
        }
    }
}

impl HybridPayload {
    /// Forward delta to the next signature bucket (for the `Sig` variant
    /// this is the *following* record's signature, skipping its own data
    /// bucket).
    pub fn next_sig_delta(&self) -> Ticks {
        match self {
            HybridPayload::Index { next_sig_delta, .. } => *next_sig_delta,
            HybridPayload::Sig {
                next_sig_after_data,
                ..
            } => *next_sig_after_data,
            HybridPayload::Data { next_sig_delta, .. } => *next_sig_delta,
        }
    }

    /// The index bucket, if this is one.
    pub fn as_index(&self) -> Option<&IndexBucket> {
        match self {
            HybridPayload::Index { node, .. } => Some(node),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_accessors_dispatch() {
        let data = HybridPayload::Data {
            key: Key(1),
            record_index: 0,
            attrs: vec![1].into(),
            next_seg_delta: 11,
            next_sig_delta: 22,
        };
        assert_eq!(data.next_sig_delta(), 22);
        assert!(data.as_index().is_none());

        let sig = HybridPayload::Sig {
            sig: Signature::zero(8),
            record_index: 0,
            next_seg_delta: 33,
            next_sig_after_data: 44,
        };
        assert_eq!(sig.next_sig_delta(), 44);
        // The signature lives inline at the paper's width.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<HybridPayload>(), 96);
    }
}
