//! Record-coverage tracking for scanning protocols.
//!
//! Scanning access methods (flat broadcast, the signature schemes) conclude
//! "not broadcast" only after ruling out **every** record. On a lossless
//! channel a simple countdown suffices — one cycle covers everything — but
//! on an error-prone channel corrupted reads leave holes, and realignment
//! can skip regions. [`Coverage`] tracks exactly which records have been
//! ruled out, so termination is both *sound* (no record is ever skipped)
//! and *guaranteed* (each record is re-broadcast every cycle, so coverage
//! eventually completes at any loss rate below 1).

/// A fixed-size set of record positions that have been ruled out.
#[derive(Debug, Clone)]
pub struct Coverage {
    bits: Box<[u64]>,
    covered: u32,
    total: u32,
}

impl Coverage {
    /// Coverage over `total` records, initially empty.
    pub fn new(total: u32) -> Self {
        Coverage {
            bits: vec![0u64; (total as usize).div_ceil(64)].into_boxed_slice(),
            covered: 0,
            total,
        }
    }

    /// Number of records ruled out so far.
    pub fn covered(&self) -> u32 {
        self.covered
    }

    /// Whether every record has been ruled out.
    pub fn is_full(&self) -> bool {
        self.covered >= self.total
    }

    /// Rule out record `i` (idempotent; out-of-range indices are ignored,
    /// which makes diagnostics-only payload indices safe to feed in).
    pub fn mark(&mut self, i: u32) {
        if i >= self.total {
            return;
        }
        let w = (i / 64) as usize;
        let b = 1u64 << (i % 64);
        if self.bits[w] & b == 0 {
            self.bits[w] |= b;
            self.covered += 1;
        }
    }

    /// Rule out the half-open range `[start, start + len)` (clipped at the
    /// record count), a word at a time.
    pub fn mark_range(&mut self, start: u32, len: u32) {
        for (w, mask) in self.words(start, len) {
            self.covered += (mask & !self.bits[w]).count_ones();
            self.bits[w] |= mask;
        }
    }

    /// Whether record `i` has already been ruled out. Out-of-range indices
    /// read as ruled out, mirroring [`Coverage::mark`] ignoring them.
    pub fn is_marked(&self, i: u32) -> bool {
        if i >= self.total {
            return true;
        }
        self.bits[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Whether ruling out record `i` would complete coverage — the
    /// fast-forward planner's "is this the terminating bucket?" test,
    /// asked *before* the bucket is consumed.
    pub fn would_fill(&self, i: u32) -> bool {
        let gain = u32::from(!self.is_marked(i));
        self.covered + gain >= self.total
    }

    /// Number of records in `[start, start + len)` not yet ruled out.
    pub fn unmarked_in_range(&self, start: u32, len: u32) -> u32 {
        self.words(start, len)
            .map(|(w, mask)| (mask & !self.bits[w]).count_ones())
            .sum()
    }

    /// Whether ruling out the whole range `[start, start + len)` would
    /// complete coverage (the frame-granular variant of
    /// [`Coverage::would_fill`]).
    pub fn would_fill_range(&self, start: u32, len: u32) -> bool {
        self.covered + self.unmarked_in_range(start, len) >= self.total
    }

    /// Rule out the longest prefix of `[start, start + len)` that leaves
    /// coverage incomplete and return its length — `len` when the whole
    /// range cannot complete it: a scan planner's coverage fold for a run
    /// of consecutive records.
    ///
    /// Each mark adds at most one record, so a range shorter than the
    /// `total − covered` records still open cannot complete coverage and
    /// is marked without looking for the stop. Otherwise the stop is the
    /// range's `total − covered`-th unmarked record, found a word at a
    /// time.
    pub fn mark_prefix(&mut self, start: u32, len: u32) -> u32 {
        let n = self.stop_in(start, len);
        self.mark_range(start, n);
        n
    }

    /// The offset of the record in `[start, start + len)` whose marking
    /// would complete coverage, or `len` (see [`Coverage::mark_prefix`]).
    fn stop_in(&self, start: u32, len: u32) -> u32 {
        let mut open = self.total.saturating_sub(self.covered);
        if len < open {
            return len;
        }
        if open == 0 {
            return 0;
        }
        for (w, mask) in self.words(start, len) {
            let mut free = mask & !self.bits[w];
            let n = free.count_ones();
            if n < open {
                open -= n;
                continue;
            }
            for _ in 1..open {
                free &= free - 1;
            }
            return (w * 64) as u32 + free.trailing_zeros() - start;
        }
        len
    }

    /// Rule out `records` one at a time, stopping before the first whose
    /// marking would complete coverage, and return how many were ruled
    /// out: the coverage fold for layouts whose record indices repeat or
    /// skip (broadcast disks).
    pub fn mark_each(&mut self, records: impl IntoIterator<Item = u32>) -> usize {
        let mut n = 0;
        for r in records {
            if self.would_fill(r) {
                break;
            }
            self.mark(r);
            n += 1;
        }
        n
    }

    /// The words overlapping `[start, start + len)` (clipped at the record
    /// count), each with the mask of its bits inside the range.
    fn words(&self, start: u32, len: u32) -> impl Iterator<Item = (usize, u64)> {
        let lo = start.min(self.total) as usize;
        let hi = start.saturating_add(len).min(self.total) as usize;
        let last = if lo < hi { hi.div_ceil(64) } else { lo / 64 };
        (lo / 64..last).map(move |w| {
            let a = lo.max(w * 64) - w * 64;
            let b = hi.min(w * 64 + 64) - w * 64;
            (w, u64::MAX >> (64 - (b - a)) << a)
        })
    }

    /// Forget everything (fresh protocol start).
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.covered = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_idempotent_and_counted() {
        let mut c = Coverage::new(100);
        assert_eq!(c.covered(), 0);
        assert!(!c.is_full());
        c.mark(3);
        c.mark(3);
        c.mark(99);
        assert_eq!(c.covered(), 2);
        for i in 0..100 {
            c.mark(i);
        }
        assert!(c.is_full());
        assert_eq!(c.covered(), 100);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut c = Coverage::new(10);
        c.mark(10);
        c.mark(u32::MAX);
        assert_eq!(c.covered(), 0);
    }

    #[test]
    fn ranges_and_clear() {
        let mut c = Coverage::new(64);
        c.mark_range(60, 8); // clipped at 64
        assert_eq!(c.covered(), 4);
        c.mark_range(0, 60);
        assert!(c.is_full());
        c.clear();
        assert_eq!(c.covered(), 0);
        assert!(!c.is_full());
    }

    #[test]
    fn would_fill_predicts_completion_without_mutating() {
        let mut c = Coverage::new(4);
        c.mark_range(0, 3);
        assert!(!c.is_marked(3));
        assert!(c.would_fill(3));
        assert!(
            !c.would_fill(0),
            "re-marking a covered record gains nothing"
        );
        assert_eq!(c.covered(), 3, "the predicate must not mutate");
        let mut d = Coverage::new(4);
        d.mark(0);
        assert!(!d.would_fill(3));
        assert_eq!(d.unmarked_in_range(0, 4), 3);
        assert!(d.would_fill_range(1, 3));
        assert!(!d.would_fill_range(1, 2));
        // Out-of-range indices read as already ruled out.
        assert!(c.is_marked(9));
        assert_eq!(d.unmarked_in_range(2, 99), 2);
    }

    #[test]
    fn zero_total_is_immediately_full() {
        let c = Coverage::new(0);
        assert!(c.is_full());
    }

    #[test]
    fn word_boundaries() {
        let mut c = Coverage::new(130);
        c.mark(63);
        c.mark(64);
        c.mark(127);
        c.mark(128);
        c.mark(129);
        assert_eq!(c.covered(), 5);
    }
}
