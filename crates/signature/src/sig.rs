//! Superimposed-coding signatures.
//!
//! "A signature is formed by hashing each field of a record into a random
//! bit string and then superimposing together all the bit strings into a
//! record signature" (§2.3). A query signature is generated the same way
//! from the queried attribute; a record *possibly* matches when its
//! signature contains every bit of the query signature.

use std::ops::Range;

use bda_core::Key;

/// A fixed-width bit string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    bits: u32,
    words: Box<[u64]>,
}

impl Signature {
    /// The all-zero signature of `bits` width.
    pub fn zero(bits: u32) -> Self {
        let words = vec![0u64; bits.div_ceil(64) as usize].into_boxed_slice();
        Signature { bits, words }
    }

    /// Width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Set bit `i` (must be `< bits`).
    pub fn set(&mut self, i: u32) {
        debug_assert!(i < self.bits);
        self.words[(i / 64) as usize] |= 1u64 << (i % 64);
    }

    /// Whether bit `i` is set.
    pub fn get(&self, i: u32) -> bool {
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Superimpose (OR) another signature of the same width.
    pub fn superimpose(&mut self, other: &Signature) {
        debug_assert_eq!(self.bits, other.bits);
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Whether every bit of `query` is also set here — the signature-match
    /// test clients perform on each signature bucket.
    pub fn matches(&self, query: &Signature) -> bool {
        debug_assert_eq!(self.bits, query.bits);
        self.words
            .iter()
            .zip(query.words.iter())
            .all(|(w, q)| w & q == *q)
    }

    /// Number of set bits (signature weight).
    pub fn weight(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// The raw 64-bit words backing the bit string (little-endian bit
    /// order: bit `i` lives in word `i / 64`).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A flat, contiguous table of signatures for bulk matching.
///
/// The fast-forward planner tests one signature per skipped bucket; chasing
/// a `Box<[u64]>` per bucket payload would make that walk pointer-bound.
/// `SigTable` lays every signature out back to back in one `Vec<u64>` with
/// a fixed stride, so the per-row test is a short run of `(w & q) == q`
/// compares over adjacent words — the layout autovectorizes and stays in
/// cache across the thousands of rows a cycle-length scan touches.
#[derive(Debug, Clone)]
pub struct SigTable {
    words_per_sig: usize,
    words: Vec<u64>,
}

impl SigTable {
    /// Build a table from signatures of uniform width, in row order.
    pub fn build<'a, I>(sigs: I) -> Self
    where
        I: IntoIterator<Item = &'a Signature>,
    {
        let mut words_per_sig = 0;
        let mut words = Vec::new();
        for s in sigs {
            if words_per_sig == 0 {
                words_per_sig = s.words.len();
            }
            debug_assert_eq!(s.words.len(), words_per_sig, "mixed signature widths");
            words.extend_from_slice(&s.words);
        }
        SigTable {
            words_per_sig,
            words,
        }
    }

    /// Number of signatures in the table.
    pub fn len(&self) -> usize {
        self.words
            .len()
            .checked_div(self.words_per_sig)
            .unwrap_or(0)
    }

    /// Whether the table holds no signatures.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether row `i` contains every bit of `query` — identical to
    /// [`Signature::matches`] on the signature the row was built from.
    #[inline]
    pub fn matches(&self, i: usize, query: &Signature) -> bool {
        let row = &self.words[i * self.words_per_sig..(i + 1) * self.words_per_sig];
        row.iter().zip(query.words.iter()).all(|(w, q)| w & q == *q)
    }

    /// The first row of `rows` that contains every bit of `query`, found by
    /// one pass over the packed words: the signature planner's stop for a
    /// run of consecutive records. Equals the first `i` in `rows` with
    /// [`SigTable::matches`]`(i, query)`; `query` must be as wide as the
    /// table's rows.
    pub fn first_match(&self, rows: Range<usize>, query: &Signature) -> Option<usize> {
        let w = self.words_per_sig;
        if w == 0 {
            // Zero-width signatures match everything.
            return (!rows.is_empty()).then_some(rows.start);
        }
        debug_assert_eq!(query.words.len(), w, "query and table widths differ");
        self.words[rows.start * w..rows.end.max(rows.start) * w]
            .chunks_exact(w)
            .position(|r| r.iter().zip(query.words.iter()).all(|(r, q)| r & q == *q))
            .map(|i| rows.start + i)
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
        let mut state = value ^ 0xA076_1D64_78BD_642F;
        let mut set = 0;
        // Draw distinct bit positions; duplicates are redrawn so every
        // attribute contributes exactly `bits_per_attr` bits (as long as
        // the signature is wide enough).
        let want = self.bits_per_attr.min(self.bits());
        let mut guard = 0;
        while set < want {
            let pos = (mix_step(&mut state) % u64::from(self.bits())) as u32;
            if !sig.get(pos) {
                sig.set(pos);
                set += 1;
            }
            guard += 1;
            if guard > 64 * want {
                break; // pathological widths; keep whatever we have
            }
        }
        sig
    }

    /// The record signature: the key's bit string superimposed with every
    /// attribute's bit string.
    pub fn record_signature(&self, key: Key, attrs: &[u64]) -> Signature {
        let mut sig = self.attr_signature(key.value());
        for &a in attrs {
            sig.superimpose(&self.attr_signature(a));
        }
        sig
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
    fn degenerate_width_does_not_loop() {
        let p = SigParams {
            sig_bytes: 1,
            bits_per_attr: 32,
        };
        let s = p.attr_signature(5);
        assert_eq!(s.weight(), 8, "can set at most all 8 bits");
    }
}
