//! Driver agreement on churning programs, through the conformance wall
//! (`bda_bench::conformance`) at 1, 5 and 20 % of records updated per
//! cycle, beside the matrix's 20 % cells (`conformance.rs`). Zero-update
//! identity and truthfulness against the epoch datasets are
//! `crates/sim/tests/engine_dynamic_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{ChannelModel, ErrorModel, RetryPolicy};

/// Every driver agrees on every scheme under churn — outcomes, restart
/// and skew counts included — at every update rate, lossless and composed
/// with 10 % loss. Queries tune in over the 16-cycle timeline.
#[test]
fn slab_reference_and_walker_agree_under_updates() {
    let airs = [ChannelModel::NONE, ErrorModel::new(0.10, 0xFA57).into()]
        .map(|air| (air, RetryPolicy::UNBOUNDED));
    let cells: Vec<Cell> = [1, 5, 20]
        .into_iter()
        .flat_map(|churn_pct| {
            let base = Cell {
                churn_pct,
                ..Cell::single(0x10EB, 60, 60, Arrivals::Cycles(16))
            };
            base.across(&SchemeKind::ALL, &airs)
        })
        .collect();
    check_all(&cells);
}
