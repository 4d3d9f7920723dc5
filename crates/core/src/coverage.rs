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
//!
//! A clean scan over a record-ordered program rules records out in cycle
//! order, so its set is one run `lo, lo + 1, …` that wraps past the last
//! record to the first. [`Coverage`] holds that run as two numbers and
//! answers every query on it by arithmetic; only a mark that would leave
//! a gap — a corrupted read, a layout that repeats or skips records —
//! makes it keep one bit per record.

/// A fixed-size set of record positions that have been ruled out.
///
/// The set starts as a cyclic run — `covered` records from `lo` on,
/// wrapping modulo `total` — and stays one while every mark touches or
/// overlaps it.
/// The first mark that would leave a gap moves it into a bitmap with one
/// bit per record, allocated then unless the storage is already there:
/// [`Coverage::clear`] returns to the empty run and keeps the bitmap, and
/// [`Coverage::reuse`] takes over a spent coverage's. A coverage that
/// stays a run owns no storage, and while it is one every query
/// (including [`Coverage::mark_prefix`]'s stop) costs O(1).
#[derive(Debug, Clone)]
pub struct Coverage {
    /// One bit per record once the set has had a gap (empty until then;
    /// its capacity outlives a [`Coverage::clear`]).
    bits: Vec<u64>,
    /// Whether `bits` holds the set; otherwise the run does.
    spilled: bool,
    /// The run's first record (meaningless while the run is empty).
    lo: u32,
    covered: u32,
    total: u32,
}

impl Coverage {
    /// Coverage over `total` records, initially empty. Allocates nothing.
    pub fn new(total: u32) -> Self {
        Coverage {
            bits: Vec::new(),
            spilled: false,
            lo: 0,
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
        if i < self.total {
            self.add(i, i + 1);
        }
    }

    /// Rule out the half-open range `[start, start + len)` (clipped at the
    /// record count).
    pub fn mark_range(&mut self, start: u32, len: u32) {
        let (a, b) = self.clip(start, len);
        if a < b {
            self.add(a, b);
        }
    }

    /// Whether record `i` has already been ruled out. Out-of-range indices
    /// read as ruled out, mirroring [`Coverage::mark`] ignoring them.
    pub fn is_marked(&self, i: u32) -> bool {
        if i >= self.total {
            return true;
        }
        if self.spilled {
            self.bits[(i / 64) as usize] >> (i % 64) & 1 == 1
        } else {
            self.offset(i) < self.covered
        }
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
        let (a, b) = self.clip(start, len);
        if self.spilled {
            self.words(a, b)
                .map(|(w, mask)| (mask & !self.bits[w]).count_ones())
                .sum()
        } else {
            let (head, tail) = self.run();
            b - a - overlap(a, b, head) - overlap(a, b, tail)
        }
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
    /// is marked without looking for the stop. Otherwise the range holds
    /// every open record exactly when it would complete coverage, and the
    /// stop is the last of them: on a run the record just before its
    /// start (or the last record), on a bitmap found a word at a time.
    pub fn mark_prefix(&mut self, start: u32, len: u32) -> u32 {
        let n = self.stop_in(start, len);
        self.mark_range(start, n);
        n
    }

    /// Rule out the longest prefix of the `frames` frames of `frame_len`
    /// records from `start` on that leaves coverage incomplete, a frame at
    /// a time, and return how many frames that is — `frames` when their
    /// records cannot complete it: [`Coverage::mark_prefix`] at frame
    /// granularity, the coverage fold for a run of frame signatures. The
    /// frame that would complete coverage is the one holding the record
    /// whose marking would. `frame_len` must be positive.
    pub fn mark_frames(&mut self, start: u32, frame_len: u32, frames: u32) -> u32 {
        let n = self.stop_in(start, frame_len * frames) / frame_len;
        self.mark_range(start, n * frame_len);
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
        if !self.spilled {
            if self.unmarked_in_range(start, len) < open {
                return len;
            }
            // The open records are `lo + covered, …, lo − 1` (mod total):
            // the last of them in record order is the last record unless
            // the run ends there, and else the one before the run.
            let last = if self.total - self.lo > self.covered {
                self.total - 1
            } else {
                self.lo - 1
            };
            return last - start;
        }
        let (a, b) = self.clip(start, len);
        for (w, mask) in self.words(a, b) {
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

    /// Forget everything (fresh protocol start). A bitmap already
    /// allocated is kept for the next gap.
    pub fn clear(&mut self) {
        self.spilled = false;
        self.covered = 0;
    }

    /// Take over the bitmap storage of `spent`, a coverage whose query is
    /// over, for this one's first gap, when it is larger than this one's
    /// own: a finished scan hands it to the next query's, so a client
    /// that runs query after query allocates a bitmap once, not once per
    /// scan with a gap. What this coverage holds is unchanged; `spent` is
    /// left empty.
    pub fn reuse(&mut self, spent: &mut Coverage) {
        if !self.spilled && spent.bits.capacity() > self.bits.capacity() {
            self.bits = std::mem::take(&mut spent.bits);
        }
        spent.clear();
    }

    /// `[start, start + len)` clipped at the record count.
    fn clip(&self, start: u32, len: u32) -> (u32, u32) {
        let end = start.saturating_add(len).min(self.total);
        (start.min(end), end)
    }

    /// Rule out the records `[a, b)`, `a < b <= total`: extend the run
    /// when they touch or overlap it, else move the set into the bitmap.
    fn add(&mut self, a: u32, b: u32) {
        if !self.spilled && !self.join(a, b - a) {
            self.spill();
        }
        if self.spilled {
            self.or_bits(a, b);
        }
    }

    /// Merge the records `a, a + 1, …` (`len` of them) into the run if
    /// the union is again one cyclic run; report whether it was.
    fn join(&mut self, a: u32, len: u32) -> bool {
        let (n, d) = (self.covered, self.offset(a));
        if n == 0 {
            (self.lo, self.covered) = (a, len);
        } else if d <= n {
            // The range starts inside the run or where it ends.
            self.covered = n.max(d.saturating_add(len));
        } else if self.total - d <= len {
            // The run starts inside the range (`total − d` records into
            // it) or where it ends.
            (self.lo, self.covered) = (a, len.max((self.total - d).saturating_add(n)));
        } else {
            return false;
        }
        self.covered = self.covered.min(self.total);
        true
    }

    /// Cyclic distance from the run's first record forward to record `i`.
    fn offset(&self, i: u32) -> u32 {
        if i >= self.lo {
            i - self.lo
        } else {
            i + (self.total - self.lo)
        }
    }

    /// The run as at most two record ranges: from `lo` up to the record
    /// count, and the part that wrapped to the first record.
    fn run(&self) -> ((u32, u32), (u32, u32)) {
        let room = self.total - self.lo;
        if self.covered <= room {
            ((self.lo, self.lo + self.covered), (0, 0))
        } else {
            ((self.lo, self.total), (0, self.covered - room))
        }
    }

    /// Move the run into the bitmap, allocating it only when no storage
    /// large enough is at hand.
    fn spill(&mut self) {
        self.bits.clear();
        self.bits.resize((self.total as usize).div_ceil(64), 0);
        let (head, tail) = self.run();
        self.spilled = true;
        self.covered = 0;
        self.or_bits(head.0, head.1);
        self.or_bits(tail.0, tail.1);
    }

    /// Set the bitmap's bits `[a, b)`, a word at a time, counting the new
    /// ones.
    fn or_bits(&mut self, a: u32, b: u32) {
        for (w, mask) in self.words(a, b) {
            self.covered += (mask & !self.bits[w]).count_ones();
            self.bits[w] |= mask;
        }
    }

    /// The words overlapping `[a, b)` (`a <= b <= total`), each with the
    /// mask of its bits inside the range.
    fn words(&self, a: u32, b: u32) -> impl Iterator<Item = (usize, u64)> {
        let (lo, hi) = (a as usize, b as usize);
        let last = if lo < hi { hi.div_ceil(64) } else { lo / 64 };
        (lo / 64..last).map(move |w| {
            let a = lo.max(w * 64) - w * 64;
            let b = hi.min(w * 64 + 64) - w * 64;
            (w, u64::MAX >> (64 - (b - a)) << a)
        })
    }
}

/// Number of records the ranges `[a, b)` and `[r.0, r.1)` share.
fn overlap(a: u32, b: u32, r: (u32, u32)) -> u32 {
    b.min(r.1).saturating_sub(a.max(r.0))
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
    fn a_clean_scan_stays_a_run_and_a_gap_spills_once() {
        let mut c = Coverage::new(200);
        // A scan from record 150 to the cycle's end, then on from record 0.
        assert_eq!(c.mark_prefix(150, 50), 50);
        c.mark(0);
        assert_eq!(c.mark_prefix(1, 200), 148, "stops before record 149");
        assert!(c.would_fill(149));
        assert!(!c.spilled && c.bits.is_empty(), "a run owns no storage");
        c.clear();
        c.mark_range(10, 5);
        c.mark(20);
        assert!(c.spilled, "records 15..20 are a gap");
        assert_eq!(c.covered(), 6);
        let bitmap = c.bits.as_ptr();
        c.clear();
        c.mark_range(0, 64);
        assert!(!c.spilled, "a cleared coverage is a run again");
        c.mark(100);
        assert_eq!(c.bits.as_ptr(), bitmap, "the bitmap is reused");
        assert_eq!(c.covered(), 65);
        assert!(c.is_marked(100) && !c.is_marked(64));
        // The next query's coverage, over a smaller program, takes it over.
        let mut next = Coverage::new(150);
        next.mark(3);
        next.reuse(&mut c);
        assert_eq!(c.covered(), 0, "the spent coverage is left empty");
        next.mark(7);
        assert_eq!(next.bits.as_ptr(), bitmap, "a spent bitmap is reused");
        assert_eq!(next.covered(), 2);
        assert!(next.is_marked(3) && next.is_marked(7) && !next.is_marked(100));
    }

    #[test]
    fn frames_stop_before_the_frame_that_would_complete_coverage() {
        // Records 0..24 in frames of 4; record 13 is already out.
        let mut c = Coverage::new(24);
        c.mark(13);
        assert_eq!(c.mark_frames(4, 4, 3), 3, "frames 1..4 leave 0..4 open");
        assert_eq!(c.covered(), 12);
        assert_eq!(c.mark_frames(16, 4, 2), 2);
        // Frame 0 holds the last open records: it would complete coverage.
        assert_eq!(c.mark_frames(0, 4, 1), 0);
        assert_eq!(c.covered(), 20);
        assert!(c.would_fill_range(0, 4));
        // A cyclic run (8..24, then 0..3) stops at the frame holding the
        // last open record; so does a set spilled into the bitmap.
        let mut d = Coverage::new(24);
        d.mark_range(0, 3);
        d.mark_range(8, 16);
        assert_eq!(d.mark_frames(0, 4, 2), 1, "record 7 is in frame 1");
        assert_eq!(d.covered(), 20);
        assert_eq!(d.mark_frames(4, 4, 0), 0);
        let mut e = Coverage::new(24);
        e.mark_range(0, 3);
        e.mark(10);
        e.mark_range(12, 12);
        assert!(e.spilled);
        assert_eq!(e.mark_frames(0, 4, 3), 2, "record 11 is in frame 2");
        assert_eq!(e.covered(), 21);
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
