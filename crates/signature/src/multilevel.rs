//! Multi-level signature scheme (extension; Lee & Lee 1996).
//!
//! Combines both signature granularities: an integrated signature per frame
//! *and* a simple signature per record. A non-matching frame is skipped
//! whole (integrated behaviour); within a matching frame the per-record
//! signatures filter individual data buckets (simple behaviour), so false
//! drops cost a record signature rather than a whole data bucket.

use std::sync::Arc;

use bda_core::{
    Action, Bucket, BucketMeta, Channel, Coverage, Dataset, FastForward, Key, Params,
    ProtocolMachine, Result, Scheme, System, Ticks, Verdict,
};

use crate::sig::{SigParams, SigTable, Signature};
use crate::simple::SigPayload;

/// The multi-level signature scheme.
#[derive(Debug, Clone, Copy)]
pub struct MultiLevelSignatureScheme {
    sig: SigParams,
    group_len: u32,
}

impl Default for MultiLevelSignatureScheme {
    fn default() -> Self {
        MultiLevelSignatureScheme {
            sig: SigParams::default(),
            group_len: 8,
        }
    }
}

impl MultiLevelSignatureScheme {
    /// Multi-level signatures over frames of `group_len` records (≥ 1).
    pub fn new(group_len: u32) -> Self {
        MultiLevelSignatureScheme {
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

/// A built multi-level-signature broadcast.
#[derive(Debug)]
pub struct MultiLevelSystem {
    channel: Channel<SigPayload>,
    sig: SigParams,
    num_records: u32,
    data_size: Ticks,
    sig_size: Ticks,
    /// Nominal frame width (every frame but the last).
    group_len: u32,
    /// Frame signatures in frame order, packed for fast-forward matching.
    groups: Arc<SigTable>,
    /// Record signatures in record order, likewise packed.
    records: Arc<SigTable>,
}

impl Scheme for MultiLevelSignatureScheme {
    type System = MultiLevelSystem;

    fn build(&self, dataset: &Dataset, params: &Params) -> Result<Self::System> {
        params.validate()?;
        let sig_size = params.header_size + self.sig.sig_bytes;
        let data_size = params.data_bucket_size();
        let mut buckets = Vec::new();
        let mut group_sigs = Vec::new();
        let mut all_record_sigs = Vec::with_capacity(dataset.len());
        for (g, frame) in dataset
            .records()
            .chunks(self.group_len as usize)
            .enumerate()
        {
            let mut group_sig = Signature::zero(self.sig.bits());
            let record_sigs: Vec<Signature> = frame
                .iter()
                .map(|r| self.sig.record_signature(r.key, &r.attrs))
                .collect();
            for s in &record_sigs {
                group_sig.superimpose(s);
            }
            group_sigs.push(group_sig.clone());
            all_record_sigs.extend(record_sigs.iter().cloned());
            buckets.push(Bucket::new(
                sig_size,
                SigPayload::GroupSig {
                    sig: group_sig,
                    first_record: (g * self.group_len as usize) as u32,
                    group_len: frame.len() as u32,
                },
            ));
            for (j, (r, s)) in frame.iter().zip(record_sigs).enumerate() {
                let record_index = (g * self.group_len as usize + j) as u32;
                buckets.push(Bucket::new(
                    sig_size,
                    SigPayload::RecordSig {
                        sig: s,
                        record_index,
                    },
                ));
                buckets.push(Bucket::new(
                    data_size,
                    SigPayload::Data {
                        key: r.key,
                        record_index,
                        attrs: r.attrs.clone(),
                    },
                ));
            }
        }
        Ok(MultiLevelSystem {
            channel: Channel::new(buckets)?,
            sig: self.sig,
            num_records: dataset.len() as u32,
            data_size: Ticks::from(data_size),
            sig_size: Ticks::from(sig_size),
            group_len: self.group_len,
            groups: Arc::new(SigTable::build(&group_sigs)),
            records: Arc::new(SigTable::build(&all_record_sigs)),
        })
    }
}

impl System for MultiLevelSystem {
    type Payload = SigPayload;
    type Machine = MultiLevelMachine;

    fn scheme_name(&self) -> &'static str {
        "multilevel-signature"
    }

    fn channel(&self) -> &Channel<SigPayload> {
        &self.channel
    }

    fn channel_mut(&mut self) -> &mut Channel<SigPayload> {
        &mut self.channel
    }

    fn query(&self, key: Key) -> MultiLevelMachine {
        MultiLevelMachine {
            key,
            query: self.sig.query_signature(key),
            data_size: self.data_size,
            sig_size: self.sig_size,
            false_drops: 0,
            in_group: 0,
            scanning: false,
            checking_data: false,
            coverage: Coverage::new(self.num_records),
            frame_len: self.group_len,
            groups: Arc::clone(&self.groups),
            records: Arc::clone(&self.records),
        }
    }
}

/// Client protocol for the multi-level scheme.
#[derive(Debug, Clone)]
pub struct MultiLevelMachine {
    key: Key,
    query: Signature,
    data_size: Ticks,
    sig_size: Ticks,
    false_drops: u32,
    /// Remaining records of the frame being scanned.
    in_group: u32,
    /// Whether we are inside a matched frame.
    scanning: bool,
    /// Whether the next bucket should be the data of a matched record sig.
    checking_data: bool,
    /// Records ruled out so far; absence is concluded at full coverage.
    coverage: Coverage,
    /// Nominal frame width: frame `g` starts at record `g * frame_len`, so
    /// a `GroupSig`'s table row is `first_record / frame_len`.
    frame_len: u32,
    /// The broadcast's frame signatures, shared with the system.
    groups: Arc<SigTable>,
    /// The broadcast's record signatures, shared with the system.
    records: Arc<SigTable>,
}

impl MultiLevelMachine {
    fn finish_or_continue(&mut self) -> Action {
        if self.in_group == 0 {
            self.scanning = false;
        }
        if self.coverage.is_full() {
            Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
        } else {
            Action::ReadNext
        }
    }
}

impl ProtocolMachine<SigPayload> for MultiLevelMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.coverage.clear();
        self.false_drops = 0;
        self.in_group = 0;
        self.scanning = false;
        self.checking_data = false;
        Action::ReadNext
    }

    /// Every signature level is index structure; only record downloads
    /// count as data reads.
    fn bucket_kind(&self, payload: &SigPayload) -> bda_core::BucketKind {
        match payload {
            SigPayload::Data { .. } => bda_core::BucketKind::Data,
            _ => bda_core::BucketKind::Index,
        }
    }

    /// A corrupted bucket stays uncovered (re-examined on a later cycle);
    /// realign on the next frame signature meanwhile.
    fn on_corrupt(&mut self, _meta: BucketMeta) -> Action {
        self.in_group = 0;
        self.scanning = false;
        self.checking_data = false;
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
                    self.scanning = true;
                    Action::ReadNext
                } else {
                    // No false negatives: the whole frame is ruled out.
                    self.coverage.mark_range(*first_record, *group_len);
                    if self.coverage.is_full() {
                        Action::Finish(Verdict::not_found().with_false_drops(self.false_drops))
                    } else {
                        // Doze over the frame: group_len × (sig + data).
                        Action::DozeTo(
                            meta.end + Ticks::from(*group_len) * (self.sig_size + self.data_size),
                        )
                    }
                }
            }
            SigPayload::RecordSig { sig, record_index } => {
                if !self.scanning {
                    // Alignment read after tune-in mid-frame.
                    return Action::ReadNext;
                }
                self.in_group -= 1;
                if sig.matches(&self.query) {
                    self.checking_data = true;
                    Action::ReadNext
                } else {
                    self.coverage.mark(*record_index);
                    if self.coverage.is_full() {
                        return Action::Finish(
                            Verdict::not_found().with_false_drops(self.false_drops),
                        );
                    }
                    if self.in_group == 0 {
                        self.scanning = false;
                    }
                    // Doze over this record's data bucket.
                    Action::DozeTo(meta.end + self.data_size)
                }
            }
            SigPayload::Data {
                key, record_index, ..
            } => {
                if *key == self.key {
                    // (Alignment reads may legitimately land on the target.)
                    return Action::Finish(Verdict::found().with_false_drops(self.false_drops));
                }
                if std::mem::take(&mut self.checking_data) {
                    self.false_drops += 1;
                }
                self.coverage.mark(*record_index);
                self.finish_or_continue()
            }
        }
    }

    /// Bulk-consume both granularities of the sift: non-matching frame
    /// signatures are skipped whole (frame-length doze over `group_len`
    /// record-signature/data pairs, committed in one O(1) step); inside a
    /// matched frame, non-matching
    /// record signatures are skipped record by record, and even a false
    /// drop — record signature matched, data bucket downloaded — is a
    /// mechanical count-and-mark sequence, and a corrupted read is
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
                    let hit = self.groups.matches(g, &self.query);
                    let frame = 1 + 2 * len as usize;
                    if !hit && (frame > run.len() || self.coverage.would_fill_range(first, len)) {
                        return;
                    }
                    if hit {
                        self.in_group = len;
                        self.scanning = true;
                        ctx.commit(1, 1, Index);
                    } else {
                        self.coverage.mark_range(first, len);
                        ctx.commit(frame, frame, Index);
                    }
                }
                SigPayload::RecordSig { record_index, .. } if !self.checking_data => {
                    if !self.scanning {
                        // Alignment read after tune-in mid-frame.
                        ctx.commit(1, 1, Index);
                        continue;
                    }
                    let r = *record_index;
                    let hit = self.records.matches(r as usize, &self.query);
                    if !hit && (run.len() < 2 || self.coverage.would_fill(r)) {
                        return;
                    }
                    self.in_group -= 1;
                    if hit {
                        self.checking_data = true;
                        ctx.commit(1, 1, Index);
                    } else {
                        self.coverage.mark(r);
                        if self.in_group == 0 {
                            self.scanning = false;
                        }
                        ctx.commit(2, 2, Index);
                    }
                }
                SigPayload::Data {
                    key, record_index, ..
                } => {
                    let r = *record_index;
                    if *key == self.key || self.coverage.would_fill(r) {
                        return;
                    }
                    if std::mem::take(&mut self.checking_data) {
                        self.false_drops += 1;
                    }
                    self.coverage.mark(r);
                    if self.in_group == 0 {
                        self.scanning = false;
                    }
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
                .map(|i| Record::new(Key(i * 5), vec![i * 5, i + 31]))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn layout_interleaves_all_three_bucket_kinds() {
        let d = ds(12);
        let p = Params::paper();
        let sys = MultiLevelSignatureScheme::new(4).build(&d, &p).unwrap();
        // 3 frames × (1 group sig + 4 × (rec sig + data)) = 27.
        assert_eq!(sys.channel().num_buckets(), 27);
        assert!(matches!(
            sys.channel().bucket(0).payload,
            SigPayload::GroupSig { .. }
        ));
        assert!(matches!(
            sys.channel().bucket(1).payload,
            SigPayload::RecordSig { .. }
        ));
        assert!(matches!(
            sys.channel().bucket(2).payload,
            SigPayload::Data { .. }
        ));
    }

    #[test]
    fn every_key_found_from_every_alignment() {
        let d = ds(30);
        let p = Params::paper();
        let sys = MultiLevelSignatureScheme::new(4).build(&d, &p).unwrap();
        let cycle = sys.channel().cycle_len();
        for i in 0..30u64 {
            for s in 0..8u64 {
                let out = sys.probe(Key(i * 5), s * cycle / 8 + 29);
                assert!(out.found, "key {} slot {s}", i * 5);
                assert!(!out.aborted);
            }
        }
    }

    #[test]
    fn absent_keys_terminate_without_abort() {
        let d = ds(30);
        let p = Params::paper();
        let sys = MultiLevelSignatureScheme::new(4).build(&d, &p).unwrap();
        for miss in [2u64, 13, 999] {
            let out = sys.probe(Key(miss), 500);
            assert!(!out.found);
            assert!(!out.aborted);
        }
    }

    #[test]
    fn false_drops_cost_less_tuning_than_integrated() {
        // With identical (deliberately collision-prone) signatures, the
        // multi-level scheme reads record signatures instead of whole data
        // buckets inside matched frames, so tuning is lower.
        let d = ds(400);
        let p = Params::paper();
        let sigp = SigParams {
            sig_bytes: 2,
            bits_per_attr: 3,
        };
        let ml = MultiLevelSignatureScheme::new(10)
            .with_params(sigp)
            .build(&d, &p)
            .unwrap();
        let int = crate::integrated::IntegratedSignatureScheme::new(10)
            .with_params(sigp)
            .build(&d, &p)
            .unwrap();
        let tuning = |out: bda_core::AccessOutcome| {
            assert!(!out.aborted);
            out.tuning
        };
        let mut ml_t = 0u64;
        let mut int_t = 0u64;
        for miss in (0..200u64).map(|i| Key(i * 5 + 3)) {
            ml_t += tuning(ml.probe(miss, 777));
            int_t += tuning(int.probe(miss, 777));
        }
        assert!(
            ml_t < int_t,
            "multi-level tuning {ml_t} should beat integrated {int_t}"
        );
    }
}
