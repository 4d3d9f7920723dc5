//! The cyclic broadcast channel.

use crate::bucket::Bucket;
use crate::error::{BdaError, Result};
use crate::Ticks;

/// A broadcast cycle: a fixed sequence of buckets the server repeats
/// forever.
///
/// The channel owns the buckets, a prefix-sum table of their start
/// offsets and a landing table over the cycle, so that "when does bucket
/// `i` next start after time `t`?" is arithmetic and "which bucket does a
/// client tuning in at `t` read first?" searches the starts of one
/// landing cell, never the whole program (see
/// [`Channel::first_complete_at`]): both are `O(1)` on uniform and
/// alternating layouts. All times are absolute [`Ticks`]; the cycle
/// length (`Bt` in the paper's notation) is the sum of all bucket sizes.
///
/// ```
/// use bda_core::{Bucket, Channel};
///
/// let ch = Channel::new(vec![
///     Bucket::new(10, "a"),
///     Bucket::new(20, "b"),
/// ]).unwrap();
/// assert_eq!(ch.cycle_len(), 30);
/// // A client tuning in mid-bucket sees the *next* complete bucket:
/// assert_eq!(ch.first_complete_at(5), (1, 10));
/// // …wrapping to the start of the next cycle after the last bucket:
/// assert_eq!(ch.first_complete_at(25), (0, 30));
/// ```
#[derive(Debug, Clone)]
pub struct Channel<P> {
    buckets: Vec<Bucket<P>>,
    /// `starts[i]` = offset of bucket `i` within the cycle; `starts\[0\] == 0`.
    starts: Vec<Ticks>,
    /// The landing table: the cycle cut into cells of `1 << shift` ticks,
    /// and `landing[c]` the first bucket starting at or after offset
    /// `c << shift` (the bucket count when none does), plus a sentinel
    /// equal to the bucket count.
    landing: Box<[u32]>,
    /// Log2 of a landing cell's width: the largest power of two not above
    /// the mean bucket size, so the table holds at most two cells per
    /// bucket.
    shift: u32,
    /// Total cycle length in bytes.
    cycle: Ticks,
    /// Broadcast-program version stamped into every bucket header
    /// (0 for frozen channels; see [`Channel::set_version`]).
    version: u64,
}

impl<P> Channel<P> {
    /// Assemble a channel from buckets. Fails on an empty sequence, any
    /// zero-sized bucket (a bucket must occupy air time to be readable) or
    /// more buckets than a `u32` counts.
    pub fn new(buckets: Vec<Bucket<P>>) -> Result<Self> {
        if buckets.is_empty() {
            return Err(BdaError::EmptyChannel);
        }
        let count = u32::try_from(buckets.len()).map_err(|_| {
            BdaError::BuildError(format!("{} buckets overflow a u32 count", buckets.len()))
        })?;
        let mut starts = Vec::with_capacity(buckets.len());
        let mut at: Ticks = 0;
        for (index, b) in buckets.iter().enumerate() {
            if b.size == 0 {
                return Err(BdaError::ZeroSizeBucket { index });
            }
            starts.push(at);
            at += Ticks::from(b.size);
        }
        // Every bucket is at least one tick, so the mean is at least 1.
        let shift = (at / Ticks::from(count)).ilog2();
        let cells = ((at - 1) >> shift) as usize + 1;
        // Cell `c` lands on the first bucket starting at or after
        // `c << shift`: bucket `i` takes every cell not yet filled up to
        // the one holding its start, and the cells after the last start
        // land past the last bucket.
        let mut landing = Vec::with_capacity(cells + 1);
        for (i, &s) in starts.iter().enumerate() {
            landing.resize((s >> shift) as usize + 1, i as u32);
        }
        landing.resize(cells + 1, count);
        Ok(Channel {
            buckets,
            starts,
            landing: landing.into_boxed_slice(),
            shift,
            cycle: at,
            version: 0,
        })
    }

    /// The broadcast-program version every bucket of this cycle carries.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Stamp the whole cycle — the channel and every bucket header — with
    /// program version `v`. A dynamic broadcast server bumps this each
    /// time it rebuilds the program, so clients can detect mid-walk that
    /// the buckets they are chasing belong to a different cycle layout.
    pub fn set_version(&mut self, v: u64) {
        self.version = v;
        for b in &mut self.buckets {
            b.version = v;
        }
    }

    /// Number of buckets per cycle (`N` in the paper when buckets are
    /// uniform).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Cycle length in bytes (`Bt`).
    pub fn cycle_len(&self) -> Ticks {
        self.cycle
    }

    /// Bucket `i` of the cycle.
    pub fn bucket(&self, i: usize) -> &Bucket<P> {
        &self.buckets[i]
    }

    /// All buckets in cycle order.
    pub fn buckets(&self) -> &[Bucket<P>] {
        &self.buckets
    }

    /// Start offset of bucket `i` within the cycle.
    pub fn start_of(&self, i: usize) -> Ticks {
        self.starts[i]
    }

    /// End offset of bucket `i` within the cycle (may equal the cycle
    /// length for the last bucket).
    pub fn end_of(&self, i: usize) -> Ticks {
        self.starts[i] + Ticks::from(self.buckets[i].size)
    }

    /// Position within the cycle of absolute time `t`.
    pub fn pos(&self, t: Ticks) -> Ticks {
        t % self.cycle
    }

    /// The first bucket that **starts at or after** absolute time `t` —
    /// i.e. the first *complete* bucket a client tuning in at `t` can read.
    ///
    /// Returns `(bucket index, absolute start time)`. If `t` falls inside a
    /// bucket, the answer is the next one (wrapping to bucket 0 of the next
    /// cycle after the last bucket). Near `Ticks::MAX` the start time
    /// saturates instead of overflowing (the simulation clock has run out
    /// of representable bytes; callers observe a start pinned at the
    /// maximum rather than a wrapped-around past instant).
    ///
    /// The answer lies between the landing table's entries for the cell
    /// holding `t`'s cycle position and the next cell, so only the starts
    /// of buckets beginning inside that cell are searched: none or one on
    /// a uniform layout, at most two where small and large buckets
    /// alternate (signature programs), and never more than one cell's
    /// width of them on any mix of sizes.
    pub fn first_complete_at(&self, t: Ticks) -> (usize, Ticks) {
        let pos = self.pos(t);
        let c = (pos >> self.shift) as usize;
        let (lo, hi) = (self.landing[c] as usize, self.landing[c + 1] as usize);
        let idx = lo + self.starts[lo..hi].partition_point(|&s| s < pos);
        if idx == self.starts.len() {
            // Wrap to the start of the next cycle.
            (0, t.saturating_add(self.cycle - pos))
        } else {
            (idx, t.saturating_add(self.starts[idx] - pos))
        }
    }

    /// Absolute start time of the first occurrence of bucket `idx` at or
    /// after absolute time `t` (saturating near `Ticks::MAX`, like
    /// [`Channel::first_complete_at`]).
    pub fn occurrence_at_or_after(&self, idx: usize, t: Ticks) -> Ticks {
        next_occurrence(self.starts[idx], self.cycle, t)
    }

    /// Forward byte delta from cycle position `from_pos` to the start of
    /// bucket `idx` — the value a channel builder stores in an on-air
    /// pointer. A delta of 0 means "the very next byte begins the target".
    ///
    /// `from_pos` is typically the *end* offset of the bucket containing the
    /// pointer, which for the last bucket equals the cycle length; the
    /// modulo folds that case back to position 0.
    pub fn delta_from(&self, from_pos: Ticks, idx: usize) -> Ticks {
        let from = from_pos % self.cycle;
        let s = self.starts[idx];
        if s >= from {
            s - from
        } else {
            (self.cycle - from).saturating_add(s)
        }
    }

    /// Map a payload-transforming function over every bucket, preserving
    /// sizes, offsets and version stamps. Useful for building derived
    /// channels in tests.
    pub fn map_payload<Q>(self, mut f: impl FnMut(P) -> Q) -> Channel<Q> {
        let buckets = self
            .buckets
            .into_iter()
            .map(|b| Bucket {
                size: b.size,
                payload: f(b.payload),
                version: b.version,
            })
            .collect();
        Channel {
            buckets,
            starts: self.starts,
            landing: self.landing,
            shift: self.shift,
            cycle: self.cycle,
            version: self.version,
        }
    }
}

/// The first instant at or after `t` at which cycle offset `offset` airs
/// on a channel of cycle length `cycle` — `t` itself when it falls there,
/// never earlier (saturating near `Ticks::MAX`). A client that knows a
/// channel's cycle length resolves an on-air `(channel, offset)` pointer
/// with it, forward-only.
pub(crate) fn next_occurrence(offset: Ticks, cycle: Ticks, t: Ticks) -> Ticks {
    let pos = t % cycle;
    if offset >= pos {
        t.saturating_add(offset - pos)
    } else {
        t.saturating_add(cycle - pos).saturating_add(offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch(sizes: &[u32]) -> Channel<usize> {
        Channel::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| Bucket::new(s, i))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Channel::<u8>::new(vec![]).unwrap_err(),
            BdaError::EmptyChannel
        );
        assert_eq!(
            Channel::new(vec![Bucket::new(4, 0u8), Bucket::new(0, 1u8)]).unwrap_err(),
            BdaError::ZeroSizeBucket { index: 1 }
        );
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let c = ch(&[10, 20, 30]);
        assert_eq!(c.num_buckets(), 3);
        assert_eq!(c.cycle_len(), 60);
        assert_eq!(c.start_of(0), 0);
        assert_eq!(c.start_of(1), 10);
        assert_eq!(c.start_of(2), 30);
        assert_eq!(c.end_of(2), 60);
    }

    #[test]
    fn first_complete_at_aligned_and_mid_bucket() {
        let c = ch(&[10, 20, 30]);
        // Aligned exactly on bucket starts.
        assert_eq!(c.first_complete_at(0), (0, 0));
        assert_eq!(c.first_complete_at(10), (1, 10));
        assert_eq!(c.first_complete_at(30), (2, 30));
        // Mid-bucket: next complete bucket.
        assert_eq!(c.first_complete_at(5), (1, 10));
        assert_eq!(c.first_complete_at(29), (2, 30));
        // Inside the last bucket: wraps to bucket 0 of next cycle.
        assert_eq!(c.first_complete_at(31), (0, 60));
        // Deep into later cycles.
        assert_eq!(c.first_complete_at(60 + 5), (1, 70));
        assert_eq!(c.first_complete_at(10 * 60), (0, 600));
    }

    /// The search the landing table replaces: every bucket start of the
    /// program, binary-searched.
    fn reference_first_complete_at<P>(c: &Channel<P>, t: Ticks) -> (usize, Ticks) {
        let pos = c.pos(t);
        let idx = c.starts.partition_point(|&s| s < pos);
        if idx == c.starts.len() {
            (0, t.saturating_add(c.cycle - pos))
        } else {
            (idx, t.saturating_add(c.starts[idx] - pos))
        }
    }

    #[test]
    fn landing_table_matches_the_whole_program_search() {
        let uniform = vec![533; 40];
        // A signature program: a small signature bucket before each large
        // data bucket.
        let alternating: Vec<u32> = (0..60).map(|i| [41, 533][i % 2]).collect();
        let mut huge = vec![1; 300];
        huge[117] = 1 << 20;
        // Each mix, with the most bucket starts one lookup may search: one
        // on a uniform layout, two where sizes alternate, and otherwise no
        // more than a cell has ticks.
        let mixes = [
            (uniform, Some(1)),
            (alternating, Some(2)),
            (huge, None),
            (vec![7], Some(1)),
            (vec![1, 1, 1], Some(1)),
            (vec![3, 1, 4, 1, 5, 9, 2, 6], None),
        ];
        for (sizes, widest) in mixes {
            let c = ch(&sizes);
            let cycle = c.cycle_len();
            assert!(c.landing.len() <= 2 * c.num_buckets() + 1, "{sizes:?}");
            let cell = c.landing.windows(2).map(|w| w[1] - w[0]).max().unwrap();
            match widest {
                Some(w) => assert_eq!(cell, w, "{sizes:?}"),
                None => assert!(cell <= 1 << c.shift, "{sizes:?}"),
            }
            let mut points = vec![
                cycle - 1,
                cycle,
                7 * cycle - 1,
                Ticks::MAX,
                Ticks::MAX - 1,
                Ticks::MAX - Ticks::MAX % cycle,
                Ticks::MAX - Ticks::MAX % cycle - 1,
                Ticks::MAX - cycle,
            ];
            for i in 0..c.num_buckets() {
                let (s, e) = (c.start_of(i), c.end_of(i));
                for at in [s, s + (e - s) / 2, e - 1] {
                    points.extend([at, 3 * cycle + at, Ticks::MAX - cycle + at]);
                }
            }
            for t in points {
                assert_eq!(
                    c.first_complete_at(t),
                    reference_first_complete_at(&c, t),
                    "t = {t}, sizes {sizes:?}"
                );
            }
        }
    }

    #[test]
    fn occurrence_wraps_correctly() {
        let c = ch(&[10, 20, 30]);
        assert_eq!(c.occurrence_at_or_after(1, 0), 10);
        assert_eq!(c.occurrence_at_or_after(1, 10), 10);
        assert_eq!(c.occurrence_at_or_after(1, 11), 70);
        assert_eq!(c.occurrence_at_or_after(0, 45), 60);
        assert_eq!(c.occurrence_at_or_after(2, 120 + 35), 120 + 30 + 60);
    }

    #[test]
    fn delta_from_is_forward_distance() {
        let c = ch(&[10, 20, 30]);
        assert_eq!(c.delta_from(10, 1), 0); // pointer at end of bucket 0 → bucket 1
        assert_eq!(c.delta_from(30, 0), 30); // end of bucket 1 → wrap to bucket 0
        assert_eq!(c.delta_from(60, 0), 0); // end of last bucket → next cycle start
        assert_eq!(c.delta_from(0, 2), 30);
    }

    #[test]
    fn delta_and_occurrence_agree() {
        let c = ch(&[7, 13, 5, 25]);
        for idx in 0..c.num_buckets() {
            for t in 0..2 * c.cycle_len() {
                let occ = c.occurrence_at_or_after(idx, t);
                assert!(occ >= t);
                assert_eq!(c.pos(occ), c.start_of(idx));
                // delta_from measured at position t must land on the same
                // occurrence when t is not already inside the target.
                let d = c.delta_from(t, idx);
                assert_eq!(c.pos(t + d), c.start_of(idx));
            }
        }
    }

    #[test]
    fn map_payload_preserves_geometry() {
        let c = ch(&[10, 20]);
        let mapped = c.clone().map_payload(|i| i * 10);
        assert_eq!(mapped.cycle_len(), c.cycle_len());
        assert_eq!(mapped.bucket(1).payload, 10);
        assert_eq!(mapped.start_of(1), 10);
    }

    #[test]
    fn set_version_stamps_channel_and_every_bucket() {
        let mut c = ch(&[10, 20, 30]);
        assert_eq!(c.version(), 0);
        assert!(c.buckets().iter().all(|b| b.version == 0));
        c.set_version(7);
        assert_eq!(c.version(), 7);
        assert!(c.buckets().iter().all(|b| b.version == 7));
        // map_payload keeps the stamps.
        let mapped = c.map_payload(|i| i + 1);
        assert_eq!(mapped.version(), 7);
        assert!(mapped.buckets().iter().all(|b| b.version == 7));
    }

    #[test]
    fn occurrence_arithmetic_saturates_near_ticks_max() {
        let c = ch(&[10, 20, 30]);
        for t in [Ticks::MAX, Ticks::MAX - 1, Ticks::MAX - 61] {
            let (_, start) = c.first_complete_at(t);
            assert!(start >= t || start == Ticks::MAX);
            for idx in 0..c.num_buckets() {
                let occ = c.occurrence_at_or_after(idx, t);
                assert!(occ >= t || occ == Ticks::MAX);
            }
        }
    }
}
