//! Event accounting through the conformance wall
//! (`bda_bench::conformance`). The random-batch properties of the slab
//! engine are `crates/sim/tests/engine_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{ChannelModel, RetryPolicy};

/// Event accounting is deterministic: the wall runs each batch on a fresh
/// engine per recorder, whose counters (events, wake batches, peak
/// occupancy) must agree, and again on the same engine, whose counters
/// must double. The adaptive simulator's accuracy stopping rule relies on
/// this run-to-run reproducibility.
#[test]
fn event_counts_are_deterministic_across_runs() {
    let kinds = [
        SchemeKind::Flat,
        SchemeKind::Hashing,
        SchemeKind::Distributed,
        SchemeKind::IntegratedSignature,
    ];
    let lossless = (ChannelModel::NONE, RetryPolicy::UNBOUNDED);
    let base = Cell::single(17, 60, 500, Arrivals::Within(4_096));
    check_all(&base.across(&kinds, &[lossless]));
}
