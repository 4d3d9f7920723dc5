//! Air-time allocation across a multichannel group
//! (`bda_core::multichannel`).
//!
//! Splitting a broadcast cycle over K channels at equal aggregate
//! bandwidth is only a win if placement follows popularity: every
//! per-channel byte airs K× slower, so an evenly striped cycle is
//! *strictly worse* than single-channel for uniform demand (same weighted
//! scan, plus switch costs). The allocator's job is to find the partition
//! — and for indexed groups the `(channel, slot)` placement — that turns
//! channel parallelism into shorter expected access time:
//!
//! * **Striped schemes** ([`best_striped`]) — exact dynamic program over
//!   contiguous partitions of the key-sorted (= popularity-sorted, the
//!   repo-wide identity-ranking convention) record list. Slice `g` rides
//!   channel `g`; every query homed off channel 0 pays the switch cost.
//!   The naive even partition is in the search space, so the result is
//!   never worse than even striping *by construction*.
//! * **Indexed groups** ([`indexed_search`]) — greedy local search over
//!   `(channel, slot)` swaps, in the spirit of the Kenyon–Schabanel–Young
//!   schedule-improvement step: start from even contiguous placement and
//!   accept slot/channel swaps among the hottest records while the
//!   predicted access time drops. The prediction is a closed form built
//!   on a residue-class argument (below), not a simulation.
//!
//! **The cross-channel wait, exactly.** The directory bucket of key `k`
//! ends at a fixed offset within channel 0's cycle (`C0` ticks long); the
//! data bucket airs at offset `o` in its channel's cycle (`L` ticks). As
//! the client's tune-in cycle varies, the arrival instant
//! `dir_end + switch_cost` sweeps the residues `{c·C0 mod L}` — exactly
//! the multiples of `g = gcd(C0, L)`. The expected wait to the data
//! bucket's next occurrence is therefore
//! `((o − base) mod g) + (L − g)/2`, and the **conflict rate** — the
//! fraction of alignments where the needed data bucket was airing while
//! the client was still reading the directory or retuning (just missed
//! it, forcing a whole extra `L`) — is `g/L` when
//! `(o − base) mod g > g − bucket`, else 0. Striped groups never
//! conflict: a query needs buckets of exactly one channel.

use bda_core::Params;

use crate::Model;

/// One striped air-time allocation: slice sizes per channel (channel 0
/// first) plus the predicted weighted metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct StripedAllocation {
    /// Channels in use (= `sizes.len()`).
    pub channels: u32,
    /// Records per channel, in key order; sums to the dataset size.
    pub sizes: Vec<usize>,
    /// Predicted popularity-weighted metrics, switch cost included.
    pub predicted: Model,
}

/// Predicted weighted metrics of striping `weights.len()` records into
/// the given contiguous `sizes` (channel 0 first), where `slice_model`
/// is the inner scheme's single-channel closed form evaluated under the
/// K-dilated params. Queries homed off channel 0 pay `switch_cost` of
/// access time (tuning is unaffected — a retuning radio is deaf).
pub fn striped_predict(
    params: &Params,
    weights: &[f64],
    sizes: &[usize],
    switch_cost: u64,
    slice_model: impl Fn(&Params, usize) -> Model,
) -> Model {
    assert_eq!(sizes.iter().sum::<usize>(), weights.len());
    let scaled = params.scaled(sizes.len() as u32);
    let mut access = 0.0;
    let mut tuning = 0.0;
    let mut lo = 0usize;
    for (g, &m) in sizes.iter().enumerate() {
        let w: f64 = weights[lo..lo + m].iter().sum();
        let model = slice_model(&scaled, m);
        let sw = if g == 0 { 0.0 } else { switch_cost as f64 };
        access += w * (model.access + sw);
        tuning += w * model.tuning;
        lo += m;
    }
    Model { access, tuning }
}

/// The naive baseline: even contiguous striping over `k` channels.
pub fn even_striped(
    params: &Params,
    weights: &[f64],
    k: u32,
    switch_cost: u64,
    slice_model: impl Fn(&Params, usize) -> Model,
) -> StripedAllocation {
    let sizes = bda_core::even_partition(weights.len(), k as usize);
    let predicted = striped_predict(params, weights, &sizes, switch_cost, slice_model);
    StripedAllocation {
        channels: sizes.len() as u32,
        sizes,
        predicted,
    }
}

/// The exact best contiguous partition into `k` slices: an `O(k·n²)`
/// dynamic program minimizing predicted weighted access time. Because
/// the even partition is one of the candidates, the result's predicted
/// access is `≤` [`even_striped`]'s — the allocator can refuse to help,
/// never hurt.
pub fn best_striped(
    params: &Params,
    weights: &[f64],
    k: u32,
    switch_cost: u64,
    slice_model: impl Fn(&Params, usize) -> Model,
) -> StripedAllocation {
    let n = weights.len();
    let k = (k as usize).clamp(1, n);
    let scaled = params.scaled(k as u32);
    // Per-slice-size access cost of the inner scheme (weight-independent:
    // every cycle position is equally far from a uniform tune-in).
    let slice_access: Vec<f64> = (0..=n)
        .map(|m| {
            if m == 0 {
                0.0
            } else {
                slice_model(&scaled, m).access
            }
        })
        .collect();
    let mut prefix = vec![0.0f64; n + 1];
    for (i, w) in weights.iter().enumerate() {
        prefix[i + 1] = prefix[i] + w;
    }
    let sw = switch_cost as f64;
    const INF: f64 = f64::INFINITY;
    // dp[g][i]: cheapest cover of records 0..i with slices on channels
    // 0..g. choice[g][i]: the split point producing it.
    let mut dp = vec![vec![INF; n + 1]; k + 1];
    let mut choice = vec![vec![0usize; n + 1]; k + 1];
    dp[0][0] = 0.0;
    for g in 1..=k {
        for i in g..=n {
            // Slice g-1 covers records j..i; leave room for g-1 earlier
            // slices and k-g later ones.
            let hi_j = i - 1;
            let lo_j = g - 1;
            if i > n - (k - g) {
                continue;
            }
            for j in lo_j..=hi_j {
                if dp[g - 1][j] == INF {
                    continue;
                }
                let w = prefix[i] - prefix[j];
                let switch = if g == 1 { 0.0 } else { sw };
                let cost = dp[g - 1][j] + w * (slice_access[i - j] + switch);
                if cost < dp[g][i] {
                    dp[g][i] = cost;
                    choice[g][i] = j;
                }
            }
        }
    }
    let mut sizes = vec![0usize; k];
    let mut i = n;
    for g in (1..=k).rev() {
        let j = choice[g][i];
        sizes[g - 1] = i - j;
        i = j;
    }
    let predicted = striped_predict(params, weights, &sizes, switch_cost, &slice_model);
    StripedAllocation {
        channels: k as u32,
        sizes,
        predicted,
    }
}

/// Pick the channel count: run [`best_striped`] for every candidate `K`
/// (each at equal aggregate bandwidth — the K-dilated params) and keep
/// the lowest predicted weighted access time.
pub fn pick_channels(
    params: &Params,
    weights: &[f64],
    candidates: &[u32],
    switch_cost: u64,
    slice_model: impl Fn(&Params, usize) -> Model,
) -> StripedAllocation {
    candidates
        .iter()
        .map(|&k| best_striped(params, weights, k, switch_cost, &slice_model))
        .min_by(|a, b| a.predicted.access.total_cmp(&b.predicted.access))
        .expect("no candidate channel counts")
}

// ---------------------------------------------------------------------------
// Indexed groups: per-(channel, slot) placement.
// ---------------------------------------------------------------------------

/// One indexed-group allocation: a per-record `(channel, slot)` placement
/// (the exact shape `IndexedGroupScheme::with_placement` takes) plus the
/// predicted metrics and the conflict rate.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedAllocation {
    /// Total channels, index channel 0 included.
    pub channels: u32,
    /// `(channel, slot)` of record `i` of the key-sorted dataset.
    pub placement: Vec<(u32, u32)>,
    /// Predicted popularity-weighted metrics, switch cost included.
    pub predicted: Model,
    /// Popularity-weighted fraction of accesses whose needed data bucket
    /// airs while the client is still reading the directory or retuning.
    pub conflict_rate: f64,
}

/// Frozen per-group geometry shared by every prediction.
struct Geometry {
    bs: u64,
    fanout: usize,
    roots: usize,
    dirs: usize,
    cycle0: u64,
    switch_cost: u64,
}

impl Geometry {
    fn new(params: &Params, n: usize, channels: u32, switch_cost: u64) -> Self {
        let scaled = params.scaled(channels);
        let bs = u64::from(scaled.data_bucket_size());
        let fanout = scaled.index_entries_per_bucket();
        let dirs = n.div_ceil(fanout);
        let roots = dirs.div_ceil(fanout);
        Geometry {
            bs,
            fanout,
            roots,
            dirs,
            cycle0: (roots + dirs) as u64 * bs,
            switch_cost,
        }
    }

    /// Expected time (and listened bytes) from tune-in to the end of the
    /// covering directory read for record `p`, averaged exactly over the
    /// channel-0 bucket the uniform tune-in lands the client on —
    /// mirroring the group walk's dispatch arithmetic step for step.
    fn pre_switch(&self, p: usize) -> (f64, f64) {
        let bs = self.bs as f64;
        let j = p / self.fanout;
        let r = j / self.fanout;
        let total = self.roots + self.dirs;
        // Full resynchronization from the end of probed bucket q: doze to
        // the next root block, scan roots 0..=r, doze to dir j, read it.
        let resync = |q: usize| {
            (total - (q + 1)) as f64 * bs
                + (r + 1) as f64 * bs
                + ((self.roots + j) as f64 - (r + 1) as f64) * bs
                + bs
        };
        let mut time = 0.0;
        let mut listen = 0.0;
        for q in 0..total {
            // Half a partial bucket listened through, plus the probed
            // bucket itself.
            let t0 = 1.5 * bs;
            let (t, l) = if q < self.roots {
                if r >= q {
                    // Scan forward from the landed root to the covering
                    // one, then doze to the directory bucket.
                    let scan = (r - q) as f64 * bs;
                    let doze = ((self.roots + j) as f64 - (r + 1) as f64) * bs;
                    (t0 + scan + doze + bs, t0 + scan + bs)
                } else {
                    (t0 + resync(q), t0 + (r + 1) as f64 * bs + bs)
                }
            } else if q - self.roots == j {
                // Landed directly on the covering directory bucket.
                (t0, t0)
            } else {
                (t0 + resync(q), t0 + (r + 1) as f64 * bs + bs)
            };
            time += t;
            listen += l;
        }
        (time / total as f64, listen / total as f64)
    }

    /// `(expected wait to the data occurrence, conflict fraction)` for
    /// record `p` placed at `(channel, slot)`, with `lane_len` data
    /// buckets on that channel — the residue-class closed form from the
    /// module docs.
    fn data_wait(&self, p: usize, slot: u32, lane_len: usize) -> (f64, f64) {
        let j = p / self.fanout;
        let cap = lane_len as u64 * self.bs;
        let g = gcd(self.cycle0, cap);
        let base = ((self.roots + j + 1) as u64 * self.bs + self.switch_cost) % cap;
        let o = u64::from(slot) * self.bs;
        let r0 = (o + cap - base % cap) % cap % g;
        let wait = r0 as f64 + (cap - g) as f64 / 2.0;
        let conflict = if g > self.bs && r0 > g - self.bs {
            g as f64 / cap as f64
        } else if g <= self.bs && r0 > 0 {
            // Residues step by ≤ one bucket: every alignment lands the
            // arrival inside some occurrence's airing window.
            g as f64 / cap as f64
        } else {
            0.0
        };
        (wait, conflict)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Predicted weighted metrics and conflict rate of a placement.
fn indexed_predict(
    geo: &Geometry,
    weights: &[f64],
    placement: &[(u32, u32)],
    lane_len: &[usize],
) -> (Model, f64) {
    let bs = geo.bs as f64;
    let mut access = 0.0;
    let mut tuning = 0.0;
    let mut conflict = 0.0;
    for (p, (&w, &(ch, slot))) in weights.iter().zip(placement).enumerate() {
        let (pre_t, pre_l) = geo.pre_switch(p);
        let (wait, cf) = geo.data_wait(p, slot, lane_len[ch as usize - 1]);
        access += w * (pre_t + geo.switch_cost as f64 + wait + bs);
        tuning += w * (pre_l + bs);
        conflict += w * cf;
    }
    (Model { access, tuning }, conflict)
}

fn even_placement(n: usize, data_channels: usize) -> (Vec<(u32, u32)>, Vec<usize>) {
    let sizes = bda_core::even_partition(n, data_channels.min(n));
    let mut placement = Vec::with_capacity(n);
    for (d, &len) in sizes.iter().enumerate() {
        for slot in 0..len {
            placement.push((d as u32 + 1, slot as u32));
        }
    }
    (placement, sizes)
}

/// The naive indexed baseline: even contiguous data striping over the
/// `channels - 1` data channels.
pub fn indexed_even(
    params: &Params,
    weights: &[f64],
    channels: u32,
    switch_cost: u64,
) -> IndexedAllocation {
    assert!(channels >= 2, "an indexed group needs >= 2 channels");
    let n = weights.len();
    let geo = Geometry::new(params, n, channels, switch_cost);
    let (placement, lanes) = even_placement(n, channels as usize - 1);
    let (predicted, conflict_rate) = indexed_predict(&geo, weights, &placement, &lanes);
    IndexedAllocation {
        channels,
        placement,
        predicted,
        conflict_rate,
    }
}

/// How many of the hottest records the local search may move.
const SEARCH_HEAD: usize = 48;
/// Improvement passes before the search settles.
const SEARCH_PASSES: usize = 6;

/// Greedy KSY-style local search over `(channel, slot)` assignments:
/// start from [`indexed_even`] and repeatedly accept pairwise swaps among
/// the hottest `SEARCH_HEAD` records (same-channel slot rotations and
/// cross-channel moves alike) while the predicted weighted access time
/// strictly drops. Deterministic, and never worse than the even baseline
/// by construction.
pub fn indexed_search(
    params: &Params,
    weights: &[f64],
    channels: u32,
    switch_cost: u64,
) -> IndexedAllocation {
    assert!(channels >= 2, "an indexed group needs >= 2 channels");
    let n = weights.len();
    let geo = Geometry::new(params, n, channels, switch_cost);
    let (mut placement, lanes) = even_placement(n, channels as usize - 1);

    // Hottest records first; ties broken by index so the scan order is
    // stable.
    let mut hot: Vec<usize> = (0..n).collect();
    hot.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    hot.truncate(SEARCH_HEAD.min(n));

    let key_cost = |p: usize, place: (u32, u32)| -> f64 {
        let (wait, _) = geo.data_wait(p, place.1, lanes[place.0 as usize - 1]);
        weights[p] * wait
    };
    for _ in 0..SEARCH_PASSES {
        let mut improved = false;
        for (ai, &a) in hot.iter().enumerate() {
            for &b in &hot[ai + 1..] {
                let (pa, pb) = (placement[a], placement[b]);
                if pa == pb {
                    continue;
                }
                let before = key_cost(a, pa) + key_cost(b, pb);
                let after = key_cost(a, pb) + key_cost(b, pa);
                if after + 1e-9 < before {
                    placement.swap(a, b);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let (predicted, conflict_rate) = indexed_predict(&geo, weights, &placement, &lanes);
    IndexedAllocation {
        channels,
        placement,
        predicted,
        conflict_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_datagen::zipf_weights;

    fn flat_model(p: &Params, m: usize) -> Model {
        crate::flat(p, m)
    }

    #[test]
    fn k1_striping_reduces_to_the_single_channel_model() {
        let p = Params::paper();
        let w = zipf_weights(100, 0.9);
        let a = best_striped(&p, &w, 1, 10_000, flat_model);
        assert_eq!(a.sizes, vec![100]);
        let base = crate::flat(&p, 100);
        assert!((a.predicted.access - base.access).abs() < 1e-9);
    }

    #[test]
    fn dp_never_beats_are_beaten_by_even_striping() {
        let p = Params::paper();
        for theta in [0.0, 0.5, 1.2] {
            let w = zipf_weights(120, theta);
            for k in [2u32, 4, 8] {
                let even = even_striped(&p, &w, k, 5_000, flat_model);
                let best = best_striped(&p, &w, k, 5_000, flat_model);
                assert!(
                    best.predicted.access <= even.predicted.access + 1e-9,
                    "theta={theta} k={k}: best {} > even {}",
                    best.predicted.access,
                    even.predicted.access
                );
                assert_eq!(best.sizes.iter().sum::<usize>(), 120);
                assert!(best.sizes.iter().all(|&s| s > 0));
            }
        }
    }

    #[test]
    fn skew_shrinks_the_home_slice() {
        let p = Params::paper();
        let w = zipf_weights(128, 1.2);
        let a = best_striped(&p, &w, 4, 2_000, flat_model);
        // The hot head must get a short (fast) slice on the switch-free
        // home channel.
        assert!(a.sizes[0] < 32, "hot slice not shrunk: {:?}", a.sizes);
        // And the skewed optimum must beat the uniform one's even split.
        let even = even_striped(&p, &w, 4, 2_000, flat_model);
        assert!(a.predicted.access < even.predicted.access);
    }

    #[test]
    fn pick_channels_prefers_one_channel_for_uniform_demand() {
        let p = Params::paper();
        let w = zipf_weights(96, 0.0);
        // Uniform demand: splitting only dilates the cycle and adds
        // switches, so K=1 must win.
        let a = pick_channels(&p, &w, &[1, 2, 4, 8], 1_000, flat_model);
        assert_eq!(a.channels, 1);
        // Heavy skew: some K > 1 must win.
        let hot = zipf_weights(96, 1.2);
        let b = pick_channels(&p, &hot, &[1, 2, 4, 8], 1_000, flat_model);
        assert!(b.channels > 1, "skewed demand stayed single-channel");
        assert!(
            b.predicted.access
                < pick_channels(&p, &hot, &[1], 0, flat_model)
                    .predicted
                    .access
        );
    }

    #[test]
    fn indexed_search_never_worse_and_placement_stays_valid() {
        let p = Params::paper();
        for theta in [0.0, 0.9, 1.2] {
            let w = zipf_weights(64, theta);
            let even = indexed_even(&p, &w, 4, 512);
            let best = indexed_search(&p, &w, 4, 512);
            assert!(best.predicted.access <= even.predicted.access + 1e-9);
            assert!((0.0..=1.0).contains(&best.conflict_rate));
            // Placement is a per-channel permutation.
            let mut lanes: Vec<Vec<u32>> = vec![Vec::new(); 3];
            for &(ch, slot) in &best.placement {
                lanes[ch as usize - 1].push(slot);
            }
            for lane in &mut lanes {
                lane.sort_unstable();
                assert_eq!(*lane, (0..lane.len() as u32).collect::<Vec<_>>());
            }
        }
    }
}
