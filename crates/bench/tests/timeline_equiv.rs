//! Windowed timelines through the conformance wall
//! (`bda_bench::conformance`): on every configuration below, as on the
//! matrix's cells (`conformance.rs`), window totals equal the engine
//! counters and the hub's aggregates, and the per-window counters,
//! evicted fold and watermark are the same at every shard count, under
//! retention tight enough to evict. Retention, merge grouping and trace
//! sampling are `crates/sim/tests/timeline_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{ChannelModel, ErrorModel, RetryPolicy};

/// Window sums equal the aggregates on every scheme, lossless and at
/// 15 % loss under a two-retry budget.
#[test]
fn window_sums_equal_aggregates_on_every_scheme() {
    let airs = [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ];
    let base = Cell::single(0x71E5, 60, 90, Arrivals::Cycles(8));
    check_all(&base.across(&SchemeKind::ALL, &airs));
}

/// The same exactness under 20 % churn: stale restarts and version skews
/// land in windows without losing a count, with and without loss.
#[test]
fn window_sums_stay_exact_under_churn() {
    let airs = [ChannelModel::NONE, ErrorModel::new(0.10, 0x717).into()]
        .map(|air| (air, RetryPolicy::UNBOUNDED));
    let base = Cell {
        churn_pct: 20,
        ..Cell::single(0x5EED, 60, 160, Arrivals::Cycles(20))
    };
    check_all(&base.across(&SchemeKind::ALL, &airs));
}

/// Sharded runs reproduce the single engine's windows exactly: the
/// per-window counters, the evicted fold and the watermark, at every shard
/// count, on a batch long enough for retention to evict.
#[test]
fn per_window_counters_are_shard_count_invariant() {
    let air = (
        ErrorModel::new(0.10, 0xC0DE).into(),
        RetryPolicy::bounded(3),
    );
    let base = Cell::single(0x5A4D, 60, 160, Arrivals::Cycles(12));
    check_all(&base.across(&[SchemeKind::Distributed], &[air]));
}
