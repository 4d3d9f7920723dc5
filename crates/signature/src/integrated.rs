//! Integrated signature scheme (extension; Lee & Lee 1996).
//!
//! One *integrated signature* summarizes a frame of `group_len` consecutive
//! records: the superimposition of their record signatures. A client that
//! sees a non-matching frame signature dozes over the whole frame at once,
//! trading per-record filtering precision (the integrated code is denser,
//! so frames false-drop more) for far fewer signature probes.

use std::sync::Arc;

use bda_core::{
    Action, Bucket, BucketMeta, Channel, Coverage, Dataset, FastForward, Key, Params,
    ProtocolMachine, Result, Scheme, System, Ticks, Verdict,
};

use crate::sig::{SigParams, SigTable, Signature};
use crate::simple::SigPayload;

/// The integrated signature scheme.
#[derive(Debug, Clone, Copy)]
pub struct IntegratedSignatureScheme {
    sig: SigParams,
    group_len: u32,
}

impl Default for IntegratedSignatureScheme {
    fn default() -> Self {
        IntegratedSignatureScheme {
            sig: SigParams::default(),
            group_len: 8,
        }
    }
}

impl IntegratedSignatureScheme {
    /// Integrated signatures over frames of `group_len` records (≥ 1).
    pub fn new(group_len: u32) -> Self {
        IntegratedSignatureScheme {
            sig: SigParams::default(),
            group_len: group_len.max(1),
        }
    }

    /// Override the signature parameters.
    pub fn with_params(mut self, sig: SigParams) -> Self {
        self.sig = sig;
        self
    }
}

/// A built integrated-signature broadcast.
#[derive(Debug)]
pub struct IntegratedSystem {
    channel: Channel<SigPayload>,
    sig: SigParams,
    num_records: u32,
    data_size: Ticks,
    /// Nominal frame width (every frame but the last).
    group_len: u32,
    /// Frame signatures in frame order, packed for fast-forward matching.
    table: Arc<SigTable>,
}

impl Scheme for IntegratedSignatureScheme {
    type System = IntegratedSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let sig_size = params.header_size + self.sig.sig_bytes;
        let data_size = params.data_bucket_size();
        let mut buckets = Vec::new();
        let mut group_sigs = Vec::new();
        for (g, frame) in dataset
            .records()
            .chunks(self.group_len as usize)
            .enumerate()
        {
            let mut sig = Signature::zero(self.sig.bits());
            for r in frame {
                sig.superimpose(&self.sig.record_signature(r.key, &r.attrs));
            }
            group_sigs.push(sig.clone());
            buckets.push(Bucket::new(
                sig_size,
                SigPayload::GroupSig {
                    sig,
                    first_record: (g * self.group_len as usize) as u32,
                    group_len: frame.len() as u32,
                },
            ));
            for (j, r) in frame.iter().enumerate() {
                buckets.push(Bucket::new(
                    data_size,
                    SigPayload::Data {
                        key: r.key,
                        record_index: (g * self.group_len as usize + j) as u32,
                        attrs: r.attrs.clone(),
                    },
                ));
            }
        }
        Ok(IntegratedSystem {
            channel: Channel::new(buckets)?,
            sig: self.sig,
            num_records: dataset.len() as u32,
            data_size: Ticks::from(data_size),
            group_len: self.group_len,
            table: Arc::new(SigTable::build(&group_sigs)),
        })
    }
}

impl System for IntegratedSystem {
    type Payload = SigPayload;
    type Machine = IntegratedMachine;

    fn scheme_name(&self) -> &'static str {
        "integrated-signature"
    }

    fn channel(&self) -> &Channel<SigPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<SigPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> IntegratedMachine {
        IntegratedMachine {
            key,
            query: self.sig.query_signature(key),
            data_size: self.data_size,
            false_drops: 0,
            in_group: 0,
            group_matched: false,
            coverage: Coverage::new(self.num_records),
            frame_len: self.group_len,
            table: Arc::clone(&self.table),
        }
    }
}

/// Client protocol for integrated signatures: match the frame signature;
/// doze over non-matching frames whole; scan matching frames record by
/// record.
#[derive(Debug, Clone)]
pub struct IntegratedMachine {
    key: Key,
    query: Signature,
    data_size: Ticks,
    false_drops: u32,
    /// Remaining data buckets of the frame being scanned.
    in_group: u32,
    /// Whether the current frame's signature matched (scanning) or we are
    /// just aligning past data buckets after tune-in.
    group_matched: bool,
    /// Records ruled out so far; absence is concluded at full coverage.
    coverage: Coverage,
    /// Nominal frame width: frame `g` starts at record `g * frame_len`, so
    /// a `GroupSig`'s table row is `first_record / frame_len`.
    frame_len: u32,
    /// The broadcast's frame signatures, shared with the system.
    table: Arc<SigTable>,
}

impl ProtocolMachine<SigPayload> for IntegratedMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.coverage.clear();
        self.false_drops = 0;
        self.in_group = 0;
        self.group_matched = false;
        Action::ReadNext
    }

    /// Frame and record signatures are index structure; only record
    /// downloads count as data reads.
    fn bucket_kind(&self, payload: &SigPayload) -> bda_core::BucketKind {
        match payload {
            SigPayload::Data { .. } => bda_core::BucketKind::Data,
            _ => bda_core::BucketKind::Index,
        }
    }

    /// A corrupted bucket stays uncovered (it will be re-examined on a
    /// later cycle); realign on the next frame signature meanwhile.
    fn on_corrupt(&mut self, _meta: BucketMeta) -> Action {
        self.in_group = 0;
        self.group_matched = false;
        Action::ReadNext
    }

    fn on_bucket(&mut self, payload: &SigPayload, meta: BucketMeta) -> Action {
        match payload {
            SigPayload::GroupSig {
                sig,
                first_record,
                group_len,
            } => {
                if sig.matches(&self.query) {
                    self.in_group = *group_len;
                    self.group_matched = true;
                    Action::ReadNext
                } else {
                    // Superimposed codes have no false negatives: a
                    // non-matching frame signature rules out the whole
                    // frame at once.
                    self.coverage.mark_range(*first_record, *group_len);
                    if self.coverage.is_full() {
                        Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                    } else {
                        // Doze over the whole frame.
                        Action::DozeTo(meta.end + Ticks::from(*group_len) * self.data_size)
                    }
                }
            }
            SigPayload::Data {
                key, record_index, ..
            } => {
                if *key == self.key {
                    // (Alignment reads may legitimately land on the target.)
                    return Action::Finish(Verdict::found().with_false_drops(self.false_drops));
                }
                if self.group_matched {
                    self.in_group -= 1;
                    self.false_drops += 1;
                    if self.in_group == 0 {
                        self.group_matched = false;
                    }
                }
                self.coverage.mark(*record_index);
                if self.coverage.is_full() {
                    Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                } else {
                    Action::ReadNext
                }
            }
            SigPayload::RecordSig { .. } => {
                debug_assert!(
                    false,
                    "record signatures do not appear in integrated layout"
                );
                Action::ReadNext
            }
        }
    }

    /// Bulk-consume the frame sift: a non-matching frame signature is a
    /// mark-range and frame-length doze, committed in one O(1) step, and
    /// even a false-dropping frame —
    /// its signature matched, so every data bucket gets downloaded — is a
    /// mechanical run of count-and-mark reads. A corrupted read is
    /// recovered in place. Stop only on a genuine decision point — the
    /// target's data bucket, the read that would complete coverage, a
    /// give-up, or the end of the run — and leave that bucket to the slow
    /// path.
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, SigPayload>) {
        use bda_core::BucketKind::{Data, Index};
        loop {
            let run = ctx.run();
            let Some(bucket) = run.first() else { return };
            if ctx.clean(1, 1) == 0 {
                if !ctx.retry(self) {
                    return;
                }
                continue;
            }
            match &bucket.payload {
                SigPayload::GroupSig {
                    first_record,
                    group_len,
                    ..
                } => {
                    let (first, len) = (*first_record, *group_len);
                    let g = (first / self.frame_len) as usize;
                    let hit = self.table.matches(g, &self.query);
                    let frame = 1 + len as usize;
                    if !hit && (frame > run.len() || self.coverage.would_fill_range(first, len)) {
                        return;
                    }
                    if hit {
                        self.in_group = len;
                        self.group_matched = true;
                        ctx.commit(1, 1, Index);
                    } else {
                        self.coverage.mark_range(first, len);
                        ctx.commit(frame, frame, Index);
                    }
                }
                SigPayload::Data {
                    key, record_index, ..
                } => {
                    let r = *record_index;
                    if *key == self.key || self.coverage.would_fill(r) {
                        return;
                    }
                    if self.group_matched {
                        self.in_group -= 1;
                        self.false_drops += 1;
                        if self.in_group == 0 {
                            self.group_matched = false;
                        }
                    }
                    self.coverage.mark(r);
                    ctx.commit(1, 1, Data);
                }
                _ => return,
            }
        }
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
                .map(|i| Record::new(Key(i * 5), vec![i * 5, i + 77]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn layout_groups_records() {
        let d = ds(20);
        let p = Params::paper();
        let sys = IntegratedSignatureScheme::new(8).build(&d, &p).unwrap();
        // 20 records in frames of 8 → 3 frames: 8, 8, 4.
        assert_eq!(sys.channel().num_buckets(), 3 + 20);
        let lens: Vec<u32> = sys
            .channel()
            .buckets()
            .iter()
            .filter_map(|b| match &b.payload {
                SigPayload::GroupSig { group_len, .. } => Some(*group_len),
                _ => None,
            })
            .collect();
        assert_eq!(lens, vec![8, 8, 4]);
    }

    #[test]
    fn every_key_found_from_every_alignment() {
        let d = ds(40);
        let p = Params::paper();
        let sys = IntegratedSignatureScheme::new(5).build(&d, &p).unwrap();
        let cycle = sys.channel().cycle_len();
        for i in 0..40u64 {
            for s in 0..7u64 {
                let out = sys.probe(Key(i * 5), s * cycle / 7 + 3);
                assert!(out.found, "key {} slot {s}", i * 5);
                assert!(!out.aborted);
            }
        }
    }

    #[test]
    fn absent_key_terminates() {
        let d = ds(40);
        let p = Params::paper();
        let sys = IntegratedSignatureScheme::new(5).build(&d, &p).unwrap();
        let out = sys.probe(Key(3), 1000);
        assert!(!out.found);
        assert!(!out.aborted);
    }

    #[test]
    fn fewer_probes_than_simple_for_missing_keys() {
        let d = ds(200);
        let p = Params::paper();
        let int = IntegratedSignatureScheme::new(10).build(&d, &p).unwrap();
        let simple = crate::simple::SimpleSignatureScheme::new()
            .build(&d, &p)
            .unwrap();
        let pi = int.probe(Key(3), 0).probes;
        let ps = simple.probe(Key(3), 0).probes;
        assert!(
            pi < ps / 3,
            "integrated probes {pi} should be ≪ simple probes {ps}"
        );
    }
}
