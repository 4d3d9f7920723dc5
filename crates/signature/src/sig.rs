//! Superimposed-coding signatures.
//!
//! "A signature is formed by hashing each field of a record into a random
//! bit string and then superimposing together all the bit strings into a
//! record signature" (§2.3). A query signature is generated the same way
//! from the queried attribute; a record *possibly* matches when its
//! signature contains every bit of the query signature.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use bda_core::Key;

/// Words a signature keeps inline: 128 bits, the paper's 16-byte
/// signature ([`SigParams::default`]).
const INLINE: usize = 2;

/// A fixed-width bit string.
///
/// Up to 128 bits it lives inline, so making, copying and dropping one
/// never touches the heap; a wider one (the signature-length ablation's
/// 32 and 64 bytes) keeps its words in a box. Equality and hashing see
/// only the width and the words, whichever way they are stored.
#[derive(Debug, Clone)]
pub struct Signature(Repr);

/// A signature's width and words: inline, with the words past its width
/// zero, or boxed.
#[derive(Debug, Clone)]
enum Repr {
    Inline { bits: u32, words: [u64; INLINE] },
    Heap { bits: u32, words: Box<[u64]> },
}

impl Signature {
    /// The all-zero signature of `bits` width.
    pub fn zero(bits: u32) -> Self {
        let n = bits.div_ceil(64) as usize;
        Signature(if n <= INLINE {
            Repr::Inline {
                bits,
                words: [0; INLINE],
            }
        } else {
            Repr::Heap {
                bits,
                words: vec![0; n].into_boxed_slice(),
            }
        })
    }

    /// Width in bits.
    pub fn bits(&self) -> u32 {
        match self.0 {
            Repr::Inline { bits, .. } | Repr::Heap { bits, .. } => bits,
        }
    }

    /// Set bit `i` (must be `< bits`).
    pub fn set(&mut self, i: u32) {
        debug_assert!(i < self.bits());
        self.words_mut()[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub fn get(&self, i: u32) -> bool {
        self.words()[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Superimpose (OR) another signature of the same width.
    pub fn superimpose(&mut self, other: &Signature) {
        debug_assert_eq!(self.bits(), other.bits());
        for (w, o) in self.words_mut().iter_mut().zip(other.words()) {
            *w |= o;
        }
    }

    /// Whether every bit of `query` is also set here — the signature-match
    /// test clients perform on each signature bucket.
    pub fn matches(&self, query: &Signature) -> bool {
        debug_assert_eq!(self.bits(), query.bits());
        self.words()
            .iter()
            .zip(query.words())
            .all(|(w, q)| w & q == *q)
    }

    /// Number of set bits (signature weight).
    pub fn weight(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// The raw 64-bit words backing the bit string (little-endian bit
    /// order: bit `i` lives in word `i / 64`).
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { bits, words } => &words[..bits.div_ceil(64) as usize],
            Repr::Heap { words, .. } => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { bits, words } => &mut words[..bits.div_ceil(64) as usize],
            Repr::Heap { words, .. } => words,
        }
    }
}

impl PartialEq for Signature {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits() && self.words() == other.words()
    }
}

impl Eq for Signature {}

impl Hash for Signature {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bits().hash(state);
        self.words().hash(state);
    }
}

/// Row-words [`SigTable::first_match`] ANDs per pass over the query's set
/// bits.
const BLOCK: usize = 8;

/// A table of signatures, stored bit-sliced for bulk matching.
///
/// Slice `b` holds bit `b` of every row, 64 rows to a word: row `r` is
/// bit `r % 64` of the slice's word `r / 64`. A row contains a query when
/// it has every one of the query's set bits, so a test reads only the
/// slices of those bits — four for a key query, whatever the signature's
/// width. The fast-forward planner's stop, the first matching row of a
/// run of consecutive records, is found by ANDing those slices word by
/// word, 64 rows to a word, with no per-row work and no allocation.
/// Slices are stored in groups of 64: word `w` of slices `64i..64i + 64`
/// lie side by side, so a test reads one 64-word block per word of the
/// query.
///
/// A scheme's table is the one copy of its signatures: the buckets that
/// air them carry only their weight, and a client's every test, stepped
/// or fast-forwarded, reads the table.
#[derive(Debug, Clone)]
pub struct SigTable {
    /// Signature width in bits.
    bits: u32,
    /// Number of rows.
    rows: usize,
    /// Words per slice, `rows.div_ceil(64)`.
    stride: usize,
    /// Word `w` of slice `b` is `slices[(b / 64 * stride + w) * 64 + b % 64]`.
    slices: Vec<u64>,
}

impl SigTable {
    /// Build a table from signatures of uniform width, in row order.
    pub fn build(sigs: &[Signature]) -> Self {
        let bits = sigs.first().map_or(0, Signature::bits);
        debug_assert!(
            sigs.iter().all(|s| s.bits() == bits),
            "mixed signature widths"
        );
        let stride = sigs.len().div_ceil(64);
        let words = (bits as usize).div_ceil(64);
        let mut slices = vec![0u64; words * stride * 64];
        // Word `i` of a 64-row block `w` is a 64 × 64 bit matrix whose
        // transpose is word `w` of slices `64i..64i + 64`.
        for (w, block) in sigs.chunks(64).enumerate() {
            for i in 0..words {
                let m: &mut [u64; 64] = (&mut slices[(i * stride + w) * 64..][..64])
                    .try_into()
                    .expect("a 64-word block");
                for (row, s) in m.iter_mut().zip(block) {
                    *row = s.words()[i];
                }
                transpose64(m);
            }
        }
        SigTable {
            bits,
            rows: sigs.len(),
            stride,
            slices,
        }
    }

    /// Number of signatures in the table.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether row `i` contains every bit of `query` — identical to
    /// [`Signature::matches`] on the signature the row was built from.
    #[inline]
    pub fn matches(&self, i: usize, query: &Signature) -> bool {
        debug_assert!(i < self.rows, "row {i} of {}", self.rows);
        self.word_matches(i / 64, 1 << (i % 64), query) != 0
    }

    /// Row `i`'s signature, read back bit by bit from the slices.
    #[cfg(test)]
    pub(crate) fn row(&self, i: usize) -> Signature {
        debug_assert!(i < self.rows, "row {i} of {}", self.rows);
        let mut sig = Signature::zero(self.bits);
        for b in 0..self.bits {
            let word = (b / 64) as usize * self.stride + i / 64;
            if self.slices[word * 64 + (b % 64) as usize] >> (i % 64) & 1 == 1 {
                sig.set(b);
            }
        }
        sig
    }

    /// The first row of `rows` that contains every bit of `query`: the
    /// signature planner's stop for a run of consecutive records. Equals
    /// the first `i` in `rows` with [`SigTable::matches`]`(i, query)`;
    /// `query` must be as wide as the table's rows.
    ///
    /// Rows are tested a block of `BLOCK` 64-row words at a time: one
    /// walk over the query's set bits ANDs each bit's slice into the
    /// block's row masks, so a 64-row word costs one load and one AND per
    /// query bit, and the first block with a live row holds the answer.
    pub fn first_match(&self, rows: Range<usize>, query: &Signature) -> Option<usize> {
        if rows.is_empty() {
            return None;
        }
        debug_assert!(rows.end <= self.rows, "rows {rows:?} of {}", self.rows);
        debug_assert_eq!(query.bits(), self.bits, "query and table widths differ");
        let (first, last) = (rows.start / 64, (rows.end - 1) / 64);
        let mut w = first;
        while w <= last {
            let n = BLOCK.min(last + 1 - w);
            let mut live = [!0u64; BLOCK];
            let live = &mut live[..n];
            if w == first {
                live[0] &= !0 << (rows.start % 64);
            }
            if w + n > last {
                live[n - 1] &= !0 >> (63 - (rows.end - 1) % 64);
            }
            for (i, &word) in query.words().iter().enumerate() {
                // Word `w + j` of slices `64i..64i + 64` is 64-word block `j`.
                let blocks = &self.slices[(i * self.stride + w) * 64..][..n * 64];
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    for (l, block) in live.iter_mut().zip(blocks.chunks_exact(64)) {
                        *l &= block[b];
                    }
                    word &= word - 1;
                }
            }
            if let Some(j) = live.iter().position(|&l| l != 0) {
                return Some((w + j) * 64 + live[j].trailing_zeros() as usize);
            }
            w += n;
        }
        None
    }

    /// The rows of `live` (a mask over the 64 rows of word `w`) that
    /// contain every bit of `query`: `live` ANDed with word `w` of each
    /// slice the query sets. A zero-width table and an all-zero query keep
    /// every live row.
    #[inline]
    fn word_matches(&self, w: usize, mut live: u64, query: &Signature) -> u64 {
        debug_assert_eq!(query.bits(), self.bits, "query and table widths differ");
        for (i, &word) in query.words().iter().enumerate() {
            let block = &self.slices[(i * self.stride + w) * 64..][..64];
            let mut word = word;
            while word != 0 {
                live &= block[word.trailing_zeros() as usize];
                word &= word - 1;
            }
        }
        live
    }
}

/// Transpose a 64 × 64 bit matrix in place: bit `c` of word `r` becomes
/// bit `r` of word `c`. Round `j` swaps the off-diagonal `j × j` blocks of
/// every `2j × 2j` block (Hacker's Delight, §7-3).
fn transpose64(m: &mut [u64; 64]) {
    // The low `j` bits of every `2j`-bit group.
    let mut low = 0x0000_0000_FFFF_FFFF_u64;
    for j in [32, 16, 8, 4, 2, 1] {
        for block in m.chunks_exact_mut(2 * j) {
            let (top, bottom) = block.split_at_mut(j);
            for (a, b) in top.iter_mut().zip(bottom) {
                let t = ((*a >> j) ^ *b) & low;
                *b ^= t;
                *a ^= t << j;
            }
        }
        low ^= low << (j / 2);
    }
}

/// Signature-generation parameters.
///
/// `sig_bytes` is the on-air signature length (the `It` of the paper's
/// analysis is `header + sig_bytes`); `bits_per_attr` is how many bits each
/// attribute's hash sets. Shorter signatures shrink the cycle (better
/// access time) but collide more (more false drops → worse tuning time) —
/// the tradeoff of §2.3, measurable with the `ablation_siglen` bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigParams {
    /// Signature length in bytes.
    pub sig_bytes: u32,
    /// Bits set per attribute hash (`weight` of each attribute string).
    pub bits_per_attr: u32,
}

impl Default for SigParams {
    fn default() -> Self {
        SigParams {
            sig_bytes: 16,
            bits_per_attr: 4,
        }
    }
}

/// SplitMix64 step used to derive bit positions from attribute values.
#[inline]
fn mix_step(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SigParams {
    /// Signature width in bits.
    pub fn bits(&self) -> u32 {
        self.sig_bytes * 8
    }

    /// Hash one attribute value into its sparse bit string.
    pub fn attr_signature(&self, value: u64) -> Signature {
        let mut sig = Signature::zero(self.bits());
        self.draw(value, sig.words_mut());
        sig
    }

    /// The record signature: the key's bit string superimposed with every
    /// attribute's bit string (see [`SigParams::superimpose_record`]).
    pub fn record_signature(&self, key: Key, attrs: &[u64]) -> Signature {
        let mut sig = Signature::zero(self.bits());
        self.superimpose_record(&mut sig, key, attrs);
        sig
    }

    /// Superimpose the record signature of `key` and `attrs` onto `sig`.
    /// Each string is drawn into one scratch word buffer, cleared between
    /// them, and superimposed in place, so at an inline width nothing
    /// touches the heap. An attribute equal to the key (attribute 0, by
    /// `bda-datagen`'s convention) is not drawn again: its string is the
    /// key's, whose bits are already set.
    pub fn superimpose_record(&self, sig: &mut Signature, key: Key, attrs: &[u64]) {
        let words = sig.words_mut();
        let mut inline = [0u64; INLINE];
        let mut boxed = Vec::new();
        let own = if words.len() <= INLINE {
            &mut inline[..words.len()]
        } else {
            boxed.resize(words.len(), 0);
            &mut boxed[..]
        };
        let key = key.value();
        for value in std::iter::once(key).chain(attrs.iter().copied().filter(|&v| v != key)) {
            own.fill(0);
            self.draw(value, own);
            for (w, o) in words.iter_mut().zip(&*own) {
                *w |= o;
            }
        }
    }

    /// Set `value`'s bit positions in `own`, the words of a signature of
    /// this width that hold no bits yet. Positions are drawn until they
    /// are distinct — `own`'s bits decide the redraws — so every
    /// attribute contributes exactly `bits_per_attr` bits (as long as the
    /// signature is wide enough). A position is a draw modulo the width;
    /// at a power-of-two width that is the draw's low bits, taken with a
    /// mask instead of a division.
    fn draw(&self, value: u64, own: &mut [u64]) {
        let bits = u64::from(self.bits());
        let mask = if bits.is_power_of_two() { bits - 1 } else { 0 };
        let mut state = value ^ 0xA076_1D64_78BD_642F;
        let mut set = 0;
        let want = self.bits_per_attr.min(self.bits());
        let mut guard = 0;
        while set < want {
            let z = mix_step(&mut state);
            let pos = if mask != 0 { z & mask } else { z % bits };
            let (word, bit) = (&mut own[(pos / 64) as usize], 1u64 << (pos % 64));
            if *word & bit == 0 {
                *word |= bit;
                set += 1;
            }
            guard += 1;
            if guard > 64 * want {
                break; // pathological widths; keep whatever we have
            }
        }
    }

    /// The query signature for a primary-key lookup.
    pub fn query_signature(&self, key: Key) -> Signature {
        self.attr_signature(key.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_set_get() {
        let mut s = Signature::zero(130);
        assert_eq!(s.bits(), 130);
        assert_eq!(s.weight(), 0);
        s.set(0);
        s.set(64);
        s.set(129);
        assert!(s.get(0) && s.get(64) && s.get(129));
        assert!(!s.get(1));
        assert_eq!(s.weight(), 3);
    }

    #[test]
    fn superimpose_is_union() {
        let p = SigParams::default();
        let a = p.attr_signature(1);
        let b = p.attr_signature(2);
        let mut u = a.clone();
        u.superimpose(&b);
        assert!(u.matches(&a));
        assert!(u.matches(&b));
        assert!(u.weight() <= a.weight() + b.weight());
    }

    #[test]
    fn attr_signature_is_deterministic_with_requested_weight() {
        let p = SigParams::default();
        let a = p.attr_signature(42);
        assert_eq!(a, p.attr_signature(42));
        assert_eq!(a.weight(), p.bits_per_attr);
        assert_ne!(a, p.attr_signature(43));
    }

    #[test]
    fn no_false_negatives_by_construction() {
        let p = SigParams {
            sig_bytes: 8,
            bits_per_attr: 3,
        };
        for k in 0..500u64 {
            let rec = p.record_signature(Key(k), &[k, k + 1, 999]);
            assert!(
                rec.matches(&p.query_signature(Key(k))),
                "record signature must contain its key's bits"
            );
        }
    }

    #[test]
    fn false_drop_rate_is_small_but_nonzero() {
        let p = SigParams::default();
        let query = p.query_signature(Key(123_456));
        let mut drops = 0;
        let n = 50_000;
        for k in 0..n {
            let rec = p.record_signature(Key(k), &[k, k * 7, k % 17, k + 3]);
            if rec.matches(&query) {
                drops += 1;
            }
        }
        // (weight/bits)^w ≈ (20/128)^4 ≈ 6e-4 → expect tens of matches.
        assert!(drops > 0, "superimposed codes must collide eventually");
        assert!(drops < n / 100, "but rarely: {drops}/{n}");
    }

    #[test]
    fn shorter_signatures_collide_more() {
        let long = SigParams {
            sig_bytes: 16,
            bits_per_attr: 4,
        };
        let short = SigParams {
            sig_bytes: 2,
            bits_per_attr: 4,
        };
        let count = |p: &SigParams| {
            let q = p.query_signature(Key(9_999_999));
            (0..20_000u64)
                .filter(|&k| p.record_signature(Key(k), &[k, k + 1, k + 2]).matches(&q))
                .count()
        };
        assert!(count(&short) > 10 * count(&long).max(1));
    }

    #[test]
    fn zero_width_tables_and_all_zero_queries_match_every_row() {
        let zero = Signature::zero(0);
        let table = SigTable::build(&[zero.clone(), zero.clone(), zero.clone()]);
        assert_eq!(table.len(), 3);
        assert!((0..3).all(|i| table.matches(i, &zero)));
        assert_eq!(table.first_match(1..3, &zero), Some(1));
        let p = SigParams::default();
        let sigs: Vec<_> = (0..100).map(|k| p.record_signature(Key(k), &[])).collect();
        let table = SigTable::build(&sigs);
        let all_zero = Signature::zero(p.bits());
        assert!((0..100).all(|i| table.matches(i, &all_zero)));
        assert_eq!(table.first_match(70..90, &all_zero), Some(70));
        assert_eq!(table.first_match(5..5, &all_zero), None);
    }

    /// The key's and each attribute's own strings, drawn by the reference
    /// below, superimposed one by one.
    fn superimposed(p: &SigParams, key: Key, attrs: &[u64]) -> Signature {
        let mut sig = drawn_by_division(p, key.value());
        for &a in attrs {
            sig.superimpose(&drawn_by_division(p, a));
        }
        sig
    }

    #[test]
    fn record_signature_superimposes_its_attributes_strings() {
        // Widths inline and boxed, weights up to the width and past it:
        // at one byte and 32 bits per attribute every string is the whole
        // byte, or what the redraw guard kept.
        for sig_bytes in [1, 2, 8, 16, 17, 24, 64] {
            for bits_per_attr in [1, 4, 16, 32] {
                let p = SigParams {
                    sig_bytes,
                    bits_per_attr,
                };
                for k in 0..200u64 {
                    let key = Key(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    // Every other record carries its key as attribute 0,
                    // as generated datasets do.
                    let attrs: Vec<u64> = (k % 2 == 0)
                        .then_some(key.value())
                        .into_iter()
                        .chain((0..k % 6).map(|j| k.wrapping_mul(j + 11)))
                        .collect();
                    assert_eq!(
                        p.record_signature(key, &attrs),
                        superimposed(&p, key, &attrs),
                        "{p:?} key {key:?} attrs {attrs:?}"
                    );
                }
            }
        }
    }

    /// `value`'s string with every position drawn modulo the width.
    fn drawn_by_division(p: &SigParams, value: u64) -> Signature {
        let mut sig = Signature::zero(p.bits());
        let mut state = value ^ 0xA076_1D64_78BD_642F;
        let want = p.bits_per_attr.min(p.bits());
        let (mut set, mut guard) = (0, 0);
        while set < want {
            let pos = (mix_step(&mut state) % u64::from(p.bits())) as u32;
            if !sig.get(pos) {
                sig.set(pos);
                set += 1;
            }
            guard += 1;
            if guard > 64 * want {
                break;
            }
        }
        sig
    }

    #[test]
    fn masked_draws_equal_draws_by_division() {
        // Power-of-two widths take the mask, the others the division.
        for sig_bytes in [1, 2, 3, 8, 16, 17, 24, 32, 64] {
            for bits_per_attr in [1, 4, 16, 32] {
                let p = SigParams {
                    sig_bytes,
                    bits_per_attr,
                };
                for v in (0..300u64).map(|v| v.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
                    assert_eq!(p.attr_signature(v), drawn_by_division(&p, v), "{p:?} {v}");
                }
            }
        }
    }

    #[test]
    fn inline_and_boxed_widths_agree_on_matches_weight_eq_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        // 64 and 128 bits live inline, 136 and more in a box.
        for sig_bytes in [1, 8, 16, 17, 32, 64] {
            let p = SigParams {
                sig_bytes,
                bits_per_attr: 4,
            };
            let inline = sig_bytes <= 16;
            assert_eq!(
                matches!(Signature::zero(p.bits()).0, Repr::Inline { .. }),
                inline
            );
            let sigs: Vec<Signature> = (0..64u64)
                .map(|k| p.record_signature(Key(k), &[k + 1, k % 5]))
                .collect();
            for a in &sigs {
                assert_eq!(a.words().len(), p.bits().div_ceil(64) as usize);
                let ones: u32 = (0..p.bits()).map(|i| u32::from(a.get(i))).sum();
                assert_eq!(a.weight(), ones, "{p:?}");
                // The hash sees the width and the words, not the storage.
                assert_eq!(
                    hash(&|s| a.hash(s)),
                    hash(&|s| {
                        a.bits().hash(s);
                        a.words().hash(s);
                    })
                );
                for b in &sigs {
                    let contains = (0..p.bits()).all(|i| !b.get(i) || a.get(i));
                    assert_eq!(a.matches(b), contains, "{p:?}");
                    let same = (0..p.bits()).all(|i| a.get(i) == b.get(i));
                    assert_eq!(a == b, same, "{p:?}");
                    if same {
                        assert_eq!(hash(&|s| a.hash(s)), hash(&|s| b.hash(s)));
                    }
                }
                assert_eq!(*a, a.clone());
            }
        }
    }

    #[test]
    fn table_rows_read_back_their_signatures() {
        for sig_bytes in [1, 16, 17] {
            let p = SigParams {
                sig_bytes,
                bits_per_attr: 4,
            };
            let sigs: Vec<_> = (0..130).map(|k| p.record_signature(Key(k), &[k])).collect();
            let table = SigTable::build(&sigs);
            assert!((0..130).all(|i| table.row(i) == sigs[i]));
        }
    }

    #[test]
    fn degenerate_width_does_not_loop() {
        let p = SigParams {
            sig_bytes: 1,
            bits_per_attr: 32,
        };
        let s = p.attr_signature(5);
        assert_eq!(s.weight(), 8, "can set at most all 8 bits");
    }
}
