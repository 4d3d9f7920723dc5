//! Synthetic dictionary generation.
//!
//! The paper's data source is "a dictionary database consisting of about
//! 35,000 records" of text (Table 1: data type *text*, record size 500
//! bytes, key size 25 bytes). We reproduce its *shape* with a deterministic
//! generator of pronounceable words: every word is distinct, words sort
//! lexicographically, and each word yields the attribute material
//! (length, initial, category, a 64-bit content hash) that signature
//! indexing superimposes into record signatures.

use crate::rng::{distinct_sorted, mix64, Prng};

/// A deterministic synthetic dictionary.
#[derive(Debug, Clone)]
pub struct Dictionary {
    words: Vec<String>,
}

const ONSETS: &[&str] = &[
    "b", "bl", "br", "c", "ch", "cl", "cr", "d", "dr", "f", "fl", "fr", "g", "gl", "gr", "h", "j",
    "k", "l", "m", "n", "p", "ph", "pl", "pr", "qu", "r", "s", "sc", "sh", "sk", "sl", "sm", "sn",
    "sp", "st", "str", "sw", "t", "th", "tr", "v", "w", "wh", "z",
];
const NUCLEI: &[&str] = &[
    "a", "ai", "au", "e", "ea", "ee", "ei", "i", "ia", "ie", "o", "oa", "oi", "oo", "ou", "u",
    "ue", "y",
];
const CODAS: &[&str] = &[
    "", "b", "ck", "ct", "d", "ft", "g", "k", "l", "ll", "lt", "m", "mp", "n", "nd", "ng", "nk",
    "nt", "p", "r", "rd", "rk", "rm", "rn", "rt", "s", "sh", "sk", "sp", "ss", "st", "t", "th",
    "x",
];

/// Generate one pronounceable word from an ordinal, deterministically.
fn synth_word(ordinal: u64) -> String {
    let mut h = mix64(ordinal.wrapping_mul(0x9E37_79B9) ^ 0xD1C7_10FF);
    let mut take = |n: usize| -> usize {
        let v = (h % n as u64) as usize;
        h = mix64(h);
        v
    };
    let syllables = 2 + take(2); // 2..=3 syllables
    let mut w = String::with_capacity(32); // 3 × 7 letters and the suffix
    for _ in 0..syllables {
        w.push_str(ONSETS[take(ONSETS.len())]);
        w.push_str(NUCLEI[take(NUCLEI.len())]);
        w.push_str(CODAS[take(CODAS.len())]);
    }
    // Disambiguate hash collisions in word space by appending the ordinal
    // in base-26 letters, keeping the result "wordy".
    let mut o = ordinal;
    loop {
        w.push((b'a' + (o % 26) as u8) as char);
        o /= 26;
        if o == 0 {
            break;
        }
    }
    w
}

impl Dictionary {
    /// Generate `n` distinct words, sorted lexicographically, from `seed`.
    pub fn generate(n: usize, seed: u64) -> Self {
        let mut rng = Prng::new(seed ^ 0xD1C7);
        let mut ord = rng.below(1 << 16);
        // The base-26 ordinal suffix makes cross-ordinal collisions
        // essentially impossible, but a repeat is drawn past anyway so
        // `len() == n` holds unconditionally.
        let words = distinct_sorted(n, || {
            let w = synth_word(ord);
            // Stride through ordinal space pseudo-randomly. The small
            // stride keeps ordinals (and hence base-26 suffixes) short so
            // words stay within a 25-byte key.
            ord = ord.wrapping_add(1 + rng.below(48));
            w
        });
        Dictionary { words }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Word at sorted position `i`.
    pub fn word(&self, i: usize) -> &str {
        &self.words[i]
    }

    /// All words, sorted.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Attribute tuple for word `i` — the material signature indexing
    /// hashes. Mirrors a dictionary entry's searchable fields: content
    /// hash, length, initial letter, and a coarse category.
    pub fn attrs(&self, i: usize) -> [u64; 4] {
        let w = &self.words[i];
        let bytes = w.as_bytes();
        let mut content = 0xcbf29ce484222325u64; // FNV-1a
        for &b in bytes {
            content ^= u64::from(b);
            content = content.wrapping_mul(0x100000001b3);
        }
        [
            content,
            bytes.len() as u64,
            u64::from(bytes[0]),
            content % 17, // coarse "category"
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Dictionary::generate(500, 1);
        let b = Dictionary::generate(500, 1);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn seeds_change_content() {
        let a = Dictionary::generate(100, 1);
        let b = Dictionary::generate(100, 2);
        assert_ne!(a.words(), b.words());
    }

    #[test]
    fn words_are_distinct_and_sorted() {
        let d = Dictionary::generate(5_000, 3);
        assert_eq!(d.len(), 5_000);
        assert!(!d.is_empty());
        for i in 1..d.len() {
            assert!(d.word(i - 1) < d.word(i), "sorted & distinct at {i}");
        }
    }

    #[test]
    fn words_are_lowercase_ascii() {
        let d = Dictionary::generate(1_000, 4);
        for w in d.words() {
            assert!(!w.is_empty());
            assert!(w.bytes().all(|b| b.is_ascii_lowercase()), "{w}");
        }
    }

    #[test]
    fn words_fit_a_25_byte_key() {
        // The paper's keys are 25 bytes; our words should mostly fit so the
        // "dictionary key" framing is honest.
        let d = Dictionary::generate(10_000, 5);
        let over = d.words().iter().filter(|w| w.len() > 25).count();
        assert!(
            over * 100 < d.len(),
            "fewer than 1% of words exceed 25 bytes (got {over})"
        );
    }

    #[test]
    fn attrs_are_stable_and_distinguish_words() {
        let d = Dictionary::generate(200, 6);
        let a0 = d.attrs(0);
        assert_eq!(a0, d.attrs(0));
        assert_eq!(a0[1], d.word(0).len() as u64);
        assert_eq!(a0[2], u64::from(d.word(0).as_bytes()[0]));
        let distinct_hashes: std::collections::HashSet<u64> =
            (0..d.len()).map(|i| d.attrs(i)[0]).collect();
        assert!(distinct_hashes.len() > 195, "content hashes nearly unique");
    }
}
