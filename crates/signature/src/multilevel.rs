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
        let frames = dataset.len().div_ceil(self.group_len as usize);
        let mut buckets = Vec::with_capacity(frames + 2 * dataset.len());
        let mut group_sigs = Vec::with_capacity(frames);
        let mut record_sigs = Vec::with_capacity(dataset.len());
        for (g, frame) in dataset
            .records()
            .chunks(self.group_len as usize)
            .enumerate()
        {
            let first_record = g * self.group_len as usize;
            let mut group_sig = Signature::zero(self.sig.bits());
            record_sigs.extend(
                frame
                    .iter()
                    .map(|r| self.sig.record_signature(r.key, &r.attrs)),
            );
            for s in &record_sigs[first_record..] {
                group_sig.superimpose(s);
            }
            buckets.push(Bucket::new(
                sig_size,
                SigPayload::GroupSig {
                    weight: group_sig.weight(),
                    first_record: first_record as u32,
                    group_len: frame.len() as u32,
                },
            ));
            group_sigs.push(group_sig);
            for (j, r) in frame.iter().enumerate() {
                let record_index = first_record + j;
                buckets.push(Bucket::new(
                    sig_size,
                    SigPayload::RecordSig {
                        weight: record_sigs[record_index].weight(),
                        record_index: record_index as u32,
                    },
                ));
                buckets.push(Bucket::new(
                    data_size,
                    SigPayload::Data {
                        key: r.key,
                        record_index: record_index as u32,
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
            records: Arc::new(SigTable::build(&record_sigs)),
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
            num_records: self.num_records,
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
    /// Records in the program: every frame but the last holds
    /// `frame_len`, the last the rest.
    num_records: u32,
    /// Nominal frame width: frame `g` starts at record `g * frame_len`, so
    /// a `GroupSig`'s table row is `first_record / frame_len`.
    frame_len: u32,
    /// The broadcast's frame signatures, shared with the system: row `g`
    /// is the signature frame `g`'s `GroupSig` bucket airs.
    groups: Arc<SigTable>,
    /// The broadcast's record signatures, shared with the system: row `r`
    /// is the signature record `r`'s `RecordSig` bucket airs.
    records: Arc<SigTable>,
}

impl MultiLevelMachine {
    /// One past the last record of the frame holding record `r`.
    fn frame_end(&self, r: u32) -> u32 {
        (r / self.frame_len + 1)
            .saturating_mul(self.frame_len)
            .min(self.num_records)
    }

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

    /// A spent scan's coverage bitmap serves this one's first gap.
    fn reuse(&mut self, spent: &mut Self) {
        self.coverage.reuse(&mut spent.coverage);
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
                first_record,
                group_len,
                ..
            } => {
                let g = (*first_record / self.frame_len) as usize;
                if self.groups.matches(g, &self.query) {
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
            SigPayload::RecordSig { record_index, .. } => {
                if !self.scanning {
                    // Alignment read after tune-in mid-frame.
                    return Action::ReadNext;
                }
                self.in_group -= 1;
                if self.records.matches(*record_index as usize, &self.query) {
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

    /// Bulk-consume both granularities of the sift a run at a time. From
    /// a frame signature, take the whole frames ahead: find the first
    /// corrupted frame signature, then the first matching one before it
    /// (one pass over the frame table), then the frame whose range would
    /// complete coverage before that, and commit the frames ahead of the
    /// first of them as signature reads each followed by a doze over the
    /// frame's record-signature/data pairs. Inside a matched frame, take
    /// its pairs as the simple planner does: one pass over the record
    /// table finds the first matching record signature, and the pairs
    /// ahead of it, the coverage stop and the first corrupted signature
    /// are committed as signature reads each followed by a one-bucket
    /// doze; a matching record signature and its data bucket — a false
    /// drop's download — are one-bucket steps. After tune-in or a
    /// corrupted read every bucket up to the next frame signature is read
    /// (record signature, data, record signature, …): that alignment run
    /// is committed at once, up to the target key, the coverage stop or
    /// the first corrupted read. A corrupted read is recovered in place.
    /// The cycle's last frame, when shorter, and a frame the run cuts are
    /// taken one at a time. Stop only on a genuine decision point — the
    /// target's data bucket, the read that would complete coverage, a
    /// give-up, or the end of the run — and leave that bucket to the slow
    /// path.
    fn fast_forward(&mut self, ctx: &mut FastForward<'_, SigPayload>) {
        use bda_core::BucketKind::{Data, Index};
        loop {
            let run = ctx.run();
            match run.first().map(|b| &b.payload) {
                Some(&SigPayload::GroupSig {
                    first_record,
                    group_len,
                    ..
                }) => {
                    let g = (first_record / self.frame_len) as usize;
                    let stride = 1 + 2 * self.frame_len as usize;
                    // The whole frames ahead: a run ends at the cycle's end,
                    // so the cycle's last frame, when shorter, never fills
                    // a stride of its own.
                    let frames = run.len() / stride;
                    if frames > 0 {
                        let clean = ctx.clean(frames * stride, stride) / stride;
                        let hit = self
                            .groups
                            .first_match(g..g + clean, &self.query)
                            .map_or(clean, |h| h - g);
                        let n = self
                            .coverage
                            .mark_frames(first_record, self.frame_len, hit as u32)
                            as usize;
                        ctx.commit(n * stride, stride, &[Index]);
                        if n < hit {
                            return;
                        }
                        if hit < clean {
                            self.in_group = self.frame_len;
                            self.scanning = true;
                            ctx.commit(1, 1, &[Index]);
                        } else if clean < frames && !ctx.retry(self) {
                            return;
                        }
                        continue;
                    }
                    if ctx.clean(1, 1) == 0 {
                        if !ctx.retry(self) {
                            return;
                        }
                        continue;
                    }
                    let hit = self.groups.matches(g, &self.query);
                    let frame = 1 + 2 * group_len as usize;
                    if !hit
                        && (frame > run.len()
                            || self.coverage.would_fill_range(first_record, group_len))
                    {
                        return;
                    }
                    if hit {
                        self.in_group = group_len;
                        self.scanning = true;
                        ctx.commit(1, 1, &[Index]);
                    } else {
                        self.coverage.mark_range(first_record, group_len);
                        ctx.commit(frame, frame, &[Index]);
                    }
                }
                Some(&SigPayload::RecordSig { record_index, .. })
                    if self.scanning && !self.checking_data =>
                {
                    let r0 = record_index as usize;
                    let pairs = (self.in_group as usize).min(run.len() / 2);
                    if pairs == 0 {
                        return;
                    }
                    let clean = ctx.clean(2 * pairs, 2) / 2;
                    let hit = self
                        .records
                        .first_match(r0..r0 + clean, &self.query)
                        .map_or(clean, |r| r - r0);
                    let n = self.coverage.mark_prefix(record_index, hit as u32);
                    self.in_group -= n;
                    self.scanning = self.in_group > 0;
                    ctx.commit(2 * n as usize, 2, &[Index]);
                    if (n as usize) < hit {
                        return;
                    }
                    if hit < clean {
                        self.in_group -= 1;
                        self.checking_data = true;
                        ctx.commit(1, 1, &[Index]);
                    } else if clean < pairs && !ctx.retry(self) {
                        return;
                    }
                }
                Some(&SigPayload::Data {
                    key, record_index, ..
                }) if self.checking_data => {
                    if ctx.clean(1, 1) == 0 {
                        if !ctx.retry(self) {
                            return;
                        }
                        continue;
                    }
                    if key == self.key || self.coverage.would_fill(record_index) {
                        return;
                    }
                    // Matching record signature, wrong record.
                    self.checking_data = false;
                    self.false_drops += 1;
                    self.coverage.mark(record_index);
                    if self.in_group == 0 {
                        self.scanning = false;
                    }
                    ctx.commit(1, 1, &[Data]);
                }
                Some(
                    &SigPayload::RecordSig { record_index, .. }
                    | &SigPayload::Data { record_index, .. },
                ) if !self.scanning && !self.checking_data => {
                    // Every bucket up to the next frame signature: record
                    // `record_index`'s data (after its signature, when the
                    // run starts there), then the frame's later pairs.
                    let on_sig = matches!(run[0].payload, SigPayload::RecordSig { .. });
                    let first_data = usize::from(on_sig);
                    let left = (self.frame_end(record_index) - record_index) as usize;
                    let len = (2 * left - 1 + first_data).min(run.len());
                    let clean = ctx.clean(len, 1);
                    let datas = (clean + 1 - first_data) / 2;
                    let hit = run[..clean]
                        .iter()
                        .skip(first_data)
                        .step_by(2)
                        .position(|b| {
                            matches!(b.payload, SigPayload::Data { key, .. } if key == self.key)
                        })
                        .unwrap_or(datas);
                    let n = self.coverage.mark_prefix(record_index, hit as u32) as usize;
                    let reads = if n < datas { first_data + 2 * n } else { clean };
                    let kinds: &[_] = if on_sig {
                        &[Index, Data]
                    } else {
                        &[Data, Index]
                    };
                    ctx.commit(reads, 1, kinds);
                    if n < datas || (clean < len && !ctx.retry(self)) {
                        return;
                    }
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
    fn the_tables_hold_each_signature_and_their_buckets_the_weights() {
        let d = ds(14);
        let p = Params::paper();
        for sigp in [
            SigParams::default(),
            SigParams {
                sig_bytes: 32,
                bits_per_attr: 6,
            },
        ] {
            let sys = MultiLevelSignatureScheme::new(4)
                .with_params(sigp)
                .build(&d, &p)
                .unwrap();
            let mut frame = Signature::zero(sigp.bits());
            let mut frames = 0;
            for b in sys.channel().buckets().iter().rev() {
                match b.payload {
                    SigPayload::RecordSig {
                        weight,
                        record_index,
                    } => {
                        let r = d.record(record_index as usize);
                        let sig = sigp.record_signature(r.key, &r.attrs);
                        assert_eq!(sys.records.row(record_index as usize), sig);
                        assert_eq!(weight, sig.weight());
                        frame.superimpose(&sig);
                    }
                    SigPayload::GroupSig {
                        weight,
                        first_record,
                        ..
                    } => {
                        assert_eq!(sys.groups.row((first_record / 4) as usize), frame);
                        assert_eq!(weight, frame.weight());
                        frame = Signature::zero(sigp.bits());
                        frames += 1;
                    }
                    SigPayload::Data { .. } => {}
                }
            }
            assert_eq!((frames, sys.groups.len(), sys.records.len()), (4, 4, 14));
        }
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
