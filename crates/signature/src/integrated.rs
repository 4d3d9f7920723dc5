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
        let frames = dataset.len().div_ceil(self.group_len as usize);
        let mut buckets = Vec::with_capacity(frames + dataset.len());
        let mut group_sigs = Vec::with_capacity(frames);
        for (g, frame) in dataset
            .records()
            .chunks(self.group_len as usize)
            .enumerate()
        {
            let mut sig = Signature::zero(self.sig.bits());
            for r in frame {
                self.sig.superimpose_record(&mut sig, r.key, &r.attrs);
            }
            buckets.push(Bucket::new(
                sig_size,
                SigPayload::GroupSig {
                    weight: sig.weight(),
                    first_record: (g * self.group_len as usize) as u32,
                    group_len: frame.len() as u32,
                },
            ));
            group_sigs.push(sig);
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
            num_records: self.num_records,
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
    /// Records in the program: every frame but the last holds
    /// `frame_len`, the last the rest.
    num_records: u32,
    /// Nominal frame width: frame `g` starts at record `g * frame_len`, so
    /// a `GroupSig`'s table row is `first_record / frame_len`.
    frame_len: u32,
    /// The broadcast's frame signatures, shared with the system: row `g`
    /// is the signature frame `g`'s `GroupSig` bucket airs.
    table: Arc<SigTable>,
}

impl IntegratedMachine {
    /// One past the last record of the frame holding record `r`.
    fn frame_end(&self, r: u32) -> u32 {
        (r / self.frame_len + 1)
            .saturating_mul(self.frame_len)
            .min(self.num_records)
    }
}

impl ProtocolMachine<SigPayload> for IntegratedMachine {
    fn start(&mut self, _tune_in: Ticks) -> Action {
        self.coverage.clear();
        self.false_drops = 0;
        self.in_group = 0;
        self.group_matched = false;
        Action::ReadNext
    }

    /// A spent scan's coverage bitmap serves this one's first gap.
    fn reuse(&mut self, spent: &mut Self) {
        self.coverage.reuse(&mut spent.coverage);
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
                first_record,
                group_len,
                ..
            } => {
                let g = (*first_record / self.frame_len) as usize;
                if self.table.matches(g, &self.query) {
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

    /// Bulk-consume the frame sift a run at a time. From a frame
    /// signature, take the whole frames ahead: find the first corrupted
    /// frame signature, then the first matching one before it (one pass
    /// over the frame table), then the frame whose range would complete
    /// coverage before that, and commit the frames ahead of the first of
    /// them as signature reads each followed by a frame-length doze. A
    /// matching frame's signature is a one-bucket step, and its data
    /// buckets — false drops — are a run of reads, as are the alignment
    /// reads up to the next frame signature after tune-in or a corrupted
    /// read: find the first corrupted read, the target key before it (the
    /// frame's keys ascend) and the coverage stop before that, and commit
    /// the reads ahead of them. A corrupted read is recovered in place. The
    /// cycle's last frame, when shorter, and a frame the run cuts are
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
                    let stride = 1 + self.frame_len as usize;
                    // The whole frames ahead: a run ends at the cycle's end,
                    // so the cycle's last frame, when shorter, never fills
                    // a stride of its own.
                    let frames = run.len() / stride;
                    if frames > 0 {
                        let clean = ctx.clean(frames * stride, stride) / stride;
                        let hit = self
                            .table
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
                            self.group_matched = true;
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
                    let hit = self.table.matches(g, &self.query);
                    let frame = 1 + group_len as usize;
                    if !hit
                        && (frame > run.len()
                            || self.coverage.would_fill_range(first_record, group_len))
                    {
                        return;
                    }
                    if hit {
                        self.in_group = group_len;
                        self.group_matched = true;
                        ctx.commit(1, 1, &[Index]);
                    } else {
                        self.coverage.mark_range(first_record, group_len);
                        ctx.commit(frame, frame, &[Index]);
                    }
                }
                Some(&SigPayload::Data { record_index, .. }) => {
                    // The data buckets up to the next frame signature.
                    let len =
                        ((self.frame_end(record_index) - record_index) as usize).min(run.len());
                    debug_assert!(
                        !self.group_matched
                            || self.in_group == self.frame_end(record_index) - record_index,
                        "a matched frame's count is its data buckets left"
                    );
                    let clean = ctx.clean(len, 1);
                    let readable = &run[..clean];
                    let at = readable.partition_point(|b| data_key(b) < self.key);
                    let hit = match readable.get(at) {
                        Some(b) if data_key(b) == self.key => at,
                        _ => clean,
                    };
                    let n = self.coverage.mark_prefix(record_index, hit as u32);
                    if self.group_matched {
                        // Each read of a matched frame is a false drop.
                        self.in_group -= n;
                        self.false_drops += n;
                        self.group_matched = self.in_group > 0;
                    }
                    ctx.commit(n as usize, 1, &[Data]);
                    if (n as usize) < clean || (clean < len && !ctx.retry(self)) {
                        return;
                    }
                }
                _ => return,
            }
        }
    }
}

/// The key of a `Data` bucket (a frame's data buckets hold nothing else).
fn data_key(b: &Bucket<SigPayload>) -> Key {
    match b.payload {
        SigPayload::Data { key, .. } => key,
        _ => unreachable!("a frame's data run holds data buckets"),
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
    fn the_table_holds_each_frame_signature_and_its_bucket_the_weight() {
        let d = ds(20);
        let p = Params::paper();
        for sigp in [
            SigParams::default(),
            SigParams {
                sig_bytes: 32,
                bits_per_attr: 6,
            },
        ] {
            let sys = IntegratedSignatureScheme::new(8)
                .with_params(sigp)
                .build(&d, &p)
                .unwrap();
            let frames = sys
                .channel()
                .buckets()
                .iter()
                .filter_map(|b| match b.payload {
                    SigPayload::GroupSig {
                        weight,
                        first_record,
                        group_len,
                    } => Some((b.payload.to_string(), weight, first_record, group_len)),
                    _ => None,
                });
            for (g, (line, weight, first, len)) in frames.enumerate() {
                let mut sig = Signature::zero(sigp.bits());
                for r in &d.records()[first as usize..(first + len) as usize] {
                    sig.superimpose(&sigp.record_signature(r.key, &r.attrs));
                }
                assert_eq!(sys.table.row(g), sig, "frame {g}");
                assert_eq!(weight, sig.weight());
                assert_eq!(line, format!("gsig  frame of {len} weight={weight}"));
            }
            assert_eq!(sys.table.len(), 3);
        }
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
