//! Driver agreement under i.i.d. loss, through the conformance wall
//! (`bda_bench::conformance`) at 2, 10 and 25 % loss, beside the matrix's
//! own 10 % and 0.1 % columns (`conformance.rs`). The retry-policy
//! properties are `crates/sim/tests/engine_lossy_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{ErrorModel, RetryPolicy};

/// Every driver agrees on every scheme at every loss rate, retrying
/// forever. Queries tune in over eight cycles, so their reads are distinct
/// enough for 2 % loss to corrupt some read of every scheme.
#[test]
fn slab_reference_and_walker_agree_under_loss() {
    let airs = [0.02, 0.10, 0.25]
        .map(|loss| (ErrorModel::new(loss, 0xFA57).into(), RetryPolicy::UNBOUNDED));
    let base = Cell::single(0x10EB, 60, 90, Arrivals::Cycles(8));
    check_all(&base.across(&SchemeKind::ALL, &airs));
}

/// Under loss and an unbounded policy no driver abandons or answers
/// wrongly: every present key is found and every absent one is not (the
/// wall's truthfulness checks on a frozen program).
#[test]
fn engine_never_lies_under_loss() {
    let air = (ErrorModel::new(0.10, 11).into(), RetryPolicy::UNBOUNDED);
    let base = Cell::single(3, 80, 120, Arrivals::Within(9_000));
    check_all(&base.across(&SchemeKind::ALL, &[air]));
}

/// Heavy loss under a one-retry budget: every scheme abandons some query,
/// and the wall's second batch on the same engine repeats the first
/// exactly, doubles every counter and claims no new slot, so abandoning
/// clients free theirs.
#[test]
fn abandoning_clients_free_their_slots_and_stay_deterministic_under_loss() {
    let air = (ErrorModel::new(0.25, 5).into(), RetryPolicy::bounded(1));
    let base = Cell::single(21, 50, 400, Arrivals::Within(9_000));
    let cells = base.across(&SchemeKind::ALL, &[air]);
    for (cell, stats) in cells.iter().zip(check_all(&cells)) {
        assert!(
            stats.abandoned > 0,
            "{}: policy never fired at 25% loss",
            cell.kind.name()
        );
    }
}
