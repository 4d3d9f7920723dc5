//! Property tests for the channel substrate and walker.

use bda_core::{
    Bucket, BurstModel, Channel, Coverage, DynSystem, ErrorModel, FlatScheme, Key, OutageSchedule,
    Params, Record, RetryPolicy, Scheme,
};
use proptest::prelude::*;

/// Arbitrary non-empty channels with 1–64 buckets of 1–4096 bytes.
fn arb_channel() -> impl Strategy<Value = Channel<usize>> {
    prop::collection::vec(1u32..4096, 1..64).prop_map(|sizes| {
        Channel::new(
            sizes
                .into_iter()
                .enumerate()
                .map(|(i, s)| Bucket::new(s, i))
                .collect(),
        )
        .expect("non-empty, positive sizes")
    })
}

/// Per-bit reference for [`Coverage`]: one flag per record, every range
/// operation a loop over single records.
struct RefCoverage {
    bits: Vec<bool>,
    covered: u32,
}

impl RefCoverage {
    fn range(&self, start: u32, len: u32) -> impl Iterator<Item = usize> + '_ {
        (start..start.saturating_add(len))
            .map(|i| i as usize)
            .filter(|&i| i < self.bits.len())
    }

    fn mark_range(&mut self, start: u32, len: u32) {
        for i in (start..start.saturating_add(len)).map(|i| i as usize) {
            if i < self.bits.len() && !self.bits[i] {
                self.bits[i] = true;
                self.covered += 1;
            }
        }
    }

    fn unmarked_in_range(&self, start: u32, len: u32) -> u32 {
        self.range(start, len).filter(|&i| !self.bits[i]).count() as u32
    }

    /// Records of the range that can be ruled out, in order, before one
    /// completes coverage.
    fn markable(&self, start: u32, len: u32) -> u32 {
        self.stop_each((0..len).map(|o| start.saturating_add(o)))
            .map_or(len, |n| n as u32)
    }

    /// The position in `records` of the first whose marking, after those
    /// before it, would complete coverage (`None` if none would).
    fn stop_each(&self, records: impl IntoIterator<Item = u32>) -> Option<usize> {
        let total = self.bits.len() as u32;
        let mut marked = self.bits.clone();
        let mut covered = self.covered;
        for (n, i) in records.into_iter().enumerate() {
            let i = i as usize;
            let gain = u32::from(i < marked.len() && !marked[i]);
            if covered + gain >= total {
                return Some(n);
            }
            if gain == 1 {
                marked[i] = true;
                covered += 1;
            }
        }
        None
    }
}

proptest! {
    /// The word-parallel range operations of [`Coverage`] agree with
    /// per-bit reference loops: random totals on and off word boundaries,
    /// pre-marked ranges and bits (up to full coverage), ranges clipped
    /// past `total`, and zero-length ranges.
    #[test]
    fn coverage_range_ops_match_per_bit_loops(
        total in 0u32..260,
        pre_ranges in prop::collection::vec((0u32..280, 0u32..200), 0..4),
        pre_bits in prop::collection::vec(0u32..280, 0..64),
        start in 0u32..280,
        from_front in any::<bool>(),
        len in 0u32..300,
    ) {
        // Half the ranges start in the first word, so that many of them
        // reach every record still open and the completing-record search
        // runs past the first word.
        let start = if from_front { start % 8 } else { start };
        let mut cov = Coverage::new(total);
        let mut reference = RefCoverage { bits: vec![false; total as usize], covered: 0 };
        for &(s, l) in &pre_ranges {
            cov.mark_range(s, l);
            reference.mark_range(s, l);
        }
        for &i in &pre_bits {
            cov.mark(i);
            reference.mark_range(i, 1);
        }
        prop_assert_eq!(cov.covered(), reference.covered);
        let unmarked = reference.unmarked_in_range(start, len);
        prop_assert_eq!(cov.unmarked_in_range(start, len), unmarked);
        prop_assert_eq!(cov.would_fill_range(start, len), reference.covered + unmarked >= total);
        let markable = reference.markable(start, len);
        // Folding the prefix word-parallel and bucket by bucket agree; the
        // fold never completes coverage, and stops only where the next
        // record would.
        let was_full = reference.covered >= total;
        let mut each = cov.clone();
        prop_assert_eq!(cov.mark_prefix(start, len), markable);
        prop_assert_eq!(each.mark_each((0..len).map(|o| start.saturating_add(o))), markable as usize);
        reference.mark_range(start, markable);
        prop_assert_eq!(cov.covered(), reference.covered);
        prop_assert_eq!(each.covered(), reference.covered);
        prop_assert!(reference.covered < total || was_full);
        prop_assert!(markable == len || reference.covered + 1 >= total);
        for i in 0..total {
            prop_assert_eq!(cov.is_marked(i), reference.bits[i as usize], "record {}", i);
            prop_assert_eq!(each.is_marked(i), reference.bits[i as usize], "record {}", i);
        }
        // A whole-range mark then agrees too.
        cov.mark_range(start, len);
        reference.mark_range(start, len);
        prop_assert_eq!(cov.covered(), reference.covered);
        prop_assert_eq!(cov.is_full(), reference.covered == total);
    }

    /// [`Coverage`] agrees with the per-bit reference after every step of a
    /// random sequence of marks, range marks, prefix folds, per-record
    /// folds and clears. Most steps are scans that go on from where the
    /// last one stopped and wrap past the last record, as a planner's runs
    /// over a record-ordered cycle do, so the set stays one run for many
    /// steps; scattered marks and scans from elsewhere leave gaps. Totals
    /// fall on and off word boundaries, and runs cross words.
    #[test]
    fn coverage_matches_per_bit_reference_step_by_step(
        total in 1u32..200,
        ops in prop::collection::vec((0u8..10, 0u32..220, 0u32..150), 1..40),
    ) {
        let mut cov = Coverage::new(total);
        let mut reference = RefCoverage { bits: vec![false; total as usize], covered: 0 };
        // Where the next continuing scan starts.
        let mut next = 0;
        for &(op, a, len) in &ops {
            match op {
                0 => {
                    cov.mark(a);
                    reference.mark_range(a, 1);
                }
                1 => {
                    cov.mark_range(a, len);
                    reference.mark_range(a, len);
                }
                2..=6 => {
                    // A scan of `len` records from `a` (op 2) or from where
                    // the last one stopped, cut at the cycle's end and
                    // continued from record 0, as consecutive runs are.
                    let mut from = if op == 2 { a % total } else { next };
                    let mut left = len;
                    loop {
                        let run = left.min(total - from);
                        let stop = reference.markable(from, run);
                        prop_assert_eq!(cov.mark_prefix(from, run), stop, "scan from {}", from);
                        reference.mark_range(from, stop);
                        next = (from + stop) % total;
                        left -= stop;
                        if stop < run || left == 0 {
                            break;
                        }
                        from = 0;
                    }
                }
                7 | 8 => {
                    // A per-record fold: consecutive records wrapping the
                    // cycle (op 7), or every third record (op 8).
                    let step = if op == 7 { 1 } else { 3 };
                    let records: Vec<u32> = (0..len).map(|o| (a + step * o) % total).collect();
                    let stop = reference.stop_each(records.iter().copied()).unwrap_or(records.len());
                    prop_assert_eq!(cov.mark_each(records.iter().copied()), stop);
                    for &r in &records[..stop] {
                        reference.mark_range(r, 1);
                    }
                }
                _ => {
                    cov.clear();
                    reference = RefCoverage { bits: vec![false; total as usize], covered: 0 };
                }
            }
            prop_assert_eq!(cov.covered(), reference.covered);
            prop_assert_eq!(cov.is_full(), reference.covered == total);
            for i in 0..total + 2 {
                let marked = reference.bits.get(i as usize) != Some(&false);
                prop_assert_eq!(cov.is_marked(i), marked, "record {}", i);
                prop_assert_eq!(cov.would_fill(i), reference.covered + u32::from(!marked) >= total);
            }
            for (s, l) in [(0, total), (a, len), (next, len), (next, total), (a % total, total)] {
                let unmarked = reference.unmarked_in_range(s, l);
                prop_assert_eq!(cov.unmarked_in_range(s, l), unmarked, "range {} + {}", s, l);
                prop_assert_eq!(cov.would_fill_range(s, l), reference.covered + unmarked >= total);
                prop_assert_eq!(cov.clone().mark_prefix(s, l), reference.markable(s, l));
            }
        }
    }

    /// `first_complete_at` returns a bucket boundary at or after `t`, no
    /// further than one full cycle away, and is periodic in the cycle.
    #[test]
    fn first_complete_at_is_sound(ch in arb_channel(), t in 0u64..1 << 40) {
        let (idx, start) = ch.first_complete_at(t);
        prop_assert!(start >= t);
        prop_assert!(start - t <= ch.cycle_len());
        prop_assert_eq!(ch.pos(start), ch.start_of(idx));
        // No bucket starts strictly between t and start.
        for i in 0..ch.num_buckets() {
            let occ = ch.occurrence_at_or_after(i, t);
            prop_assert!(occ >= start || occ == start, "bucket {i} sneaks in");
        }
        // Periodicity.
        let (idx2, start2) = ch.first_complete_at(t + ch.cycle_len());
        prop_assert_eq!(idx, idx2);
        prop_assert_eq!(start2 - start, ch.cycle_len());
    }

    /// `delta_from` always lands on the target bucket's start, within one
    /// cycle.
    #[test]
    fn delta_from_lands_on_target(ch in arb_channel(), from in 0u64..1 << 40, which in any::<proptest::sample::Index>()) {
        let idx = which.index(ch.num_buckets());
        let d = ch.delta_from(from, idx);
        prop_assert!(d < ch.cycle_len() + u64::from(ch.bucket(idx).size));
        prop_assert_eq!(ch.pos(from + d), ch.start_of(idx));
    }

    /// Flat broadcast over arbitrary key sets: exact retrieval semantics
    /// and the tuning == access identity, lossless and lossy.
    #[test]
    fn flat_protocol_is_exact(
        keys in prop::collection::btree_set(0u64..1 << 48, 1..80),
        t in 0u64..1 << 40,
        probe_key in 0u64..1 << 48,
        loss in 0.0f64..0.3,
    ) {
        let records: Vec<Record> = keys.iter().map(|&k| Record::keyed(k)).collect();
        let ds = bda_core::Dataset::new(records).unwrap();
        let sys = FlatScheme.build(&ds, &Params::paper()).unwrap();
        let expect = keys.contains(&probe_key);
        let out = sys.probe(Key(probe_key), t);
        prop_assert_eq!(out.found, expect);
        prop_assert_eq!(out.tuning, out.access, "flat never dozes");
        prop_assert!(!out.aborted);
        // Lossy channel: same verdict, never aborted.
        let lossy = sys.probe_with_channel(
            Key(probe_key),
            t,
            ErrorModel::new(loss, 7).into(),
            RetryPolicy::UNBOUNDED,
        );
        prop_assert_eq!(lossy.found, expect);
        prop_assert!(!lossy.aborted);
        prop_assert!(lossy.access >= out.access || lossy.retries == 0);
    }

    /// The error model is a pure function of (bucket start, seed): clones
    /// agree everywhere, and distinct seeds decorrelate the corruption
    /// pattern.
    #[test]
    fn error_model_is_deterministic_and_seed_sensitive(
        loss in 0.01f64..0.99,
        seed in any::<u64>(),
        starts in prop::collection::vec(0u64..1 << 50, 1..200),
    ) {
        let m = ErrorModel::new(loss, seed);
        let clone = m;
        prop_assert_eq!(m, clone);
        for &s in &starts {
            prop_assert_eq!(m.corrupted(s), clone.corrupted(s), "clone diverged at {}", s);
        }
        // A different seed must not reproduce the same pattern on any
        // reasonably long sample (probability ~loss^n of a false alarm).
        if starts.len() >= 64 {
            let other = ErrorModel::new(loss, seed ^ 0x9E37_79B9_7F4A_7C15);
            let agree = starts.iter().filter(|&&s| m.corrupted(s) == other.corrupted(s)).count();
            prop_assert!(agree < starts.len(), "seeds {} and friend fully correlated", seed);
        }
    }

    /// Edge rates: `loss = 0` never corrupts, `loss = 1` always corrupts.
    #[test]
    fn error_model_edge_rates(seed in any::<u64>(), start in 0u64..1 << 50) {
        prop_assert!(!ErrorModel::new(0.0, seed).corrupted(start));
        prop_assert!(!ErrorModel::NONE.corrupted(start));
        prop_assert!(ErrorModel::new(1.0, seed).corrupted(start));
    }

    /// For a fixed seed the corrupted set is pointwise monotone in the
    /// loss probability: the same hash is compared against the threshold,
    /// so p1 <= p2 implies corrupted(p1) ⊆ corrupted(p2) *exactly* — not
    /// just statistically.
    #[test]
    fn error_model_corruption_is_monotone_in_loss(
        seed in any::<u64>(),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
        starts in prop::collection::vec(0u64..1 << 50, 1..300),
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let weak = ErrorModel::new(lo, seed);
        let strong = ErrorModel::new(hi, seed);
        let mut weak_hits = 0usize;
        let mut strong_hits = 0usize;
        for &s in &starts {
            if weak.corrupted(s) {
                weak_hits += 1;
                prop_assert!(strong.corrupted(s), "lost corruption at {} raising {} -> {}", s, lo, hi);
            }
            if strong.corrupted(s) {
                strong_hits += 1;
            }
        }
        prop_assert!(weak_hits <= strong_hits);
    }

    /// Cycle-boundary exactness: at any bucket's exact start time (in any
    /// cycle), `first_complete_at` returns *that* bucket with zero wait,
    /// `occurrence_at_or_after` is a fixed point, and `delta_from` the
    /// bucket's own start is zero.
    #[test]
    fn boundary_alignment_is_exact(
        ch in arb_channel(),
        cyc in 0u64..1 << 20,
        which in any::<proptest::sample::Index>(),
    ) {
        let i = which.index(ch.num_buckets());
        let t = cyc * ch.cycle_len() + ch.start_of(i);
        let (idx, start) = ch.first_complete_at(t);
        prop_assert_eq!(idx, i);
        prop_assert_eq!(start, t);
        prop_assert_eq!(ch.occurrence_at_or_after(i, t), t);
        prop_assert_eq!(ch.delta_from(ch.start_of(i), i), 0);
        // The cycle boundary itself is bucket 0's start.
        let (idx0, s0) = ch.first_complete_at(cyc * ch.cycle_len());
        prop_assert_eq!(idx0, 0);
        prop_assert_eq!(s0, cyc * ch.cycle_len());
    }

    /// Near `Ticks::MAX` the channel arithmetic saturates instead of
    /// overflowing: results never wrap around to a past instant, and
    /// whenever the clamp did not engage they still land on a true bucket
    /// boundary.
    #[test]
    fn channel_arithmetic_is_overflow_free_near_ticks_max(
        ch in arb_channel(),
        back in 0u64..1 << 20,
        which in any::<proptest::sample::Index>(),
    ) {
        use bda_core::Ticks;
        let t = Ticks::MAX - back;
        let (idx, start) = ch.first_complete_at(t);
        prop_assert!(idx < ch.num_buckets());
        prop_assert!(start >= t, "wrapped into the past: {} < {}", start, t);
        if start != Ticks::MAX {
            prop_assert_eq!(ch.pos(start), ch.start_of(idx));
        }
        let i = which.index(ch.num_buckets());
        let occ = ch.occurrence_at_or_after(i, t);
        prop_assert!(occ >= t, "occurrence wrapped into the past");
        if occ != Ticks::MAX {
            prop_assert_eq!(ch.pos(occ), ch.start_of(i));
        }
        // `delta_from` is cycle-local: bounded by two cycles for any input
        // magnitude, and the landing position is exact.
        let from = t % ch.cycle_len();
        let d = ch.delta_from(from, i);
        prop_assert!(d < 2 * ch.cycle_len());
        prop_assert_eq!(ch.pos(from + d), ch.start_of(i));
    }

    /// The empirical loss rate over a large sample tracks `loss_prob`
    /// (binomial concentration: ±5 σ bound, deterministic per seed).
    #[test]
    fn error_model_empirical_rate_tracks_loss_prob(
        seed in any::<u64>(),
        loss in 0.05f64..0.95,
    ) {
        let m = ErrorModel::new(loss, seed);
        let n = 20_000u64;
        // Irregular stride so starts don't share low-bit structure.
        let hits = (0..n).filter(|i| m.corrupted(i * 6_700_417)).count() as f64;
        let rate = hits / n as f64;
        let sigma = (loss * (1.0 - loss) / n as f64).sqrt();
        prop_assert!(
            (rate - loss).abs() < 5.0 * sigma + 1e-3,
            "empirical {} vs nominal {} (seed {})", rate, loss, seed
        );
    }

    /// The Gilbert–Elliott skip-ahead is *exact*: for any chain parameters
    /// and any instant, the backward monotone-coupling resolution returns
    /// the same fading state as stepping the chain forward tick by tick
    /// from its t = 0 anchor — which is what makes burst corruption a pure
    /// function of (bucket instant, seed) and keeps shard merges and
    /// fast-forward hops bit-exact.
    #[test]
    fn burst_skip_ahead_equals_naive_forward_walk(
        p in 0.001f64..0.9,
        q in 0.001f64..0.9,
        lg in 0.0f64..0.5,
        lb in 0.5f64..1.0,
        seed in any::<u64>(),
        t in 0u64..30_000,
    ) {
        let m = BurstModel::new(p, q, lg, lb, seed);
        prop_assert_eq!(
            m.state_at(t),
            m.state_at_naive(t),
            "skip-ahead diverged from the forward walk at t={} (p={}, q={}, seed={})",
            t, p, q, seed
        );
        // Purity: re-asking gives the same answer (no hidden state).
        prop_assert_eq!(m.state_at(t), m.state_at(t));
    }

    /// Over a long sample the chain's empirical corruption rate converges
    /// to the stationary closed form `(q·lg + p·lb) / (p + q)`. The
    /// sample mean of a two-state chain concentrates like the i.i.d.
    /// binomial inflated by the mixing factor `(2 − p − q)/(p + q)`, so a
    /// 5 σ bound on the inflated deviation is deterministic-safe.
    #[test]
    fn burst_empirical_rate_tracks_stationary_loss(
        p in 0.05f64..0.95,
        q in 0.05f64..0.95,
        lb in 0.4f64..1.0,
        seed in any::<u64>(),
    ) {
        let lg = 0.02;
        let m = BurstModel::new(p, q, lg, lb, seed);
        let expect = m.stationary_loss();
        prop_assert!((expect - (q * lg + p * lb) / (p + q)).abs() < 1e-12);
        let n = 30_000u64;
        let hits = (0..n).filter(|&t| m.corrupted(t)).count() as f64;
        let rate = hits / n as f64;
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        let inflation = ((2.0 - p - q) / (p + q)).sqrt().max(1.0);
        prop_assert!(
            (rate - expect).abs() < 5.0 * sigma * inflation + 5e-3,
            "empirical {} vs stationary {} (p={}, q={}, seed={})",
            rate, expect, p, q, seed
        );
    }

    /// Outage spans are seed-deterministic, stay inside their frame (so
    /// consecutive spans can never overlap), occupy exactly `len` ticks,
    /// and `in_outage` agrees pointwise with the span arithmetic.
    #[test]
    fn outage_spans_are_disjoint_and_deterministic(
        every in 1u64..100_000,
        len in 1u64..100_000,
        seed in any::<u64>(),
        k in 0u64..1 << 30,
    ) {
        let sched = OutageSchedule::new(every, len, seed);
        let clone = sched;
        let (start, end) = sched.span(k).expect("non-degenerate schedule");
        prop_assert_eq!(sched.span(k), clone.span(k), "spans drifted between clones");
        // The span sits inside frame k and is exactly len (clamped) long.
        prop_assert!(start >= k * every, "span starts before its frame");
        prop_assert!(end <= (k + 1) * every, "span spills into the next frame");
        prop_assert_eq!(end - start, len.min(every));
        // Disjointness with the neighbour frame follows from containment.
        let (next_start, _) = sched.span(k + 1).expect("same schedule");
        prop_assert!(end <= next_start, "consecutive spans overlap");
        // in_outage agrees with the span arithmetic at the edges. The
        // first tick past the span is clear unless it is already the
        // *next* frame's span (possible when len == every).
        prop_assert!(sched.in_outage(start));
        prop_assert!(sched.in_outage(end - 1));
        if end < next_start {
            prop_assert!(!sched.in_outage(end));
        }
        if start > k * every {
            prop_assert!(!sched.in_outage(start - 1));
        }
    }

    /// Back-off jitter is a pure function of `(jitter_seed, attempt)`:
    /// clones agree, draws stay in `[1, base]`, outage recovery always
    /// dozes at least one cycle with the doubling capped, and removing the
    /// jitter seed restores the deterministic exponential sequence.
    #[test]
    fn backoff_jitter_is_deterministic_per_seed_and_attempt(
        seed in any::<u64>(),
        cap_pow in 0u32..8,
        attempt in 1u32..64,
    ) {
        let cap = 1u32 << cap_pow;
        let plain = RetryPolicy::bounded(64).with_backoff_cap(cap);
        let jittered = plain.with_jitter(seed);
        for outage in [false, true] {
            let base = plain.recovery_cycles(attempt, outage);
            let j1 = jittered.recovery_cycles(attempt, outage);
            let j2 = jittered.recovery_cycles(attempt, outage);
            prop_assert_eq!(j1, j2, "jitter not deterministic per (seed, attempt)");
            if base == 0 {
                prop_assert_eq!(j1, 0);
            } else {
                prop_assert!(j1 >= 1 && j1 <= base, "jitter {} outside [1, {}]", j1, base);
            }
            if outage {
                prop_assert!(base >= 1, "outage recovery must doze at least one cycle");
                prop_assert!(base <= cap.max(1), "outage doze {} exceeds cap {}", base, cap);
            }
        }
        // Without jitter the exponential sequence is exact: 1,2,4,… capped.
        let expect = 1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX).min(u64::from(cap)) as u32;
        prop_assert_eq!(plain.recovery_cycles(attempt, true), expect.max(1));
    }
}
