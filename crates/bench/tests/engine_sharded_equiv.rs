//! The round-robin sharded engine at 1, 2, 3 and 7 shards against the
//! single engine — outcomes, outcome counters, merged histograms, span
//! sums and windows — through the conformance wall
//! (`bda_bench::conformance`), as on every cell of the matrix
//! (`conformance.rs`). That an arbitrary request→shard assignment merges
//! back to the unsharded result is `crates/sim/tests/engine_sharded_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{ChannelModel, ErrorModel, RetryPolicy};

/// 15 % loss — the suite's error-prone channel.
const LOSS: f64 = 0.15;

/// The airs the suite runs over: lossless with unbounded retries, and
/// 15 % loss with a bounded (2-retry) policy so abandonment paths are
/// exercised too.
fn fault_modes() -> [(ChannelModel, RetryPolicy); 2] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(LOSS, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ]
}

/// Outcomes and outcome counters are invariant across shard counts on
/// every frozen scheme, lossless and at 15 % loss.
#[test]
fn outcomes_and_stats_invariant_across_shard_counts() {
    let base = Cell::single(0x5A4D, 60, 90, Arrivals::Cycles(16));
    check_all(&base.across(&SchemeKind::ALL, &fault_modes()));
}

/// The same invariance on programs churning 20 % of records per cycle —
/// stale restarts and version skews included — with and without loss.
#[test]
fn churned_programs_are_shard_invariant() {
    let base = Cell {
        churn_pct: 20,
        ..Cell::single(0x0C0DE, 60, 70, Arrivals::Cycles(16))
    };
    check_all(&base.across(&SchemeKind::ALL, &fault_modes()));
}

/// Merged metrics are bit-identical to the single engine's at every shard
/// count: the access, tuning and retry-depth histograms (so every
/// percentile), the outcome counters and the span sums, under every
/// recorder.
#[test]
fn merged_metrics_histograms_and_percentiles_are_bit_identical() {
    let air = (ErrorModel::new(LOSS, 0x717).into(), RetryPolicy::bounded(3));
    let base = Cell::single(0x0B5, 60, 90, Arrivals::Cycles(16));
    check_all(&base.across(&SchemeKind::ALL, &[air]));
}
