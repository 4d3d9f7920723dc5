//! Fast-forward through the conformance wall (`bda_bench::conformance`):
//! on every configuration below, as on the matrix's cells
//! (`conformance.rs`), fast-forward changes no outcome, counter or span,
//! agrees with the reference oracle and never adds events — and on a
//! churning program the scans still shed events. The event collapse and
//! the edges are `crates/sim/tests/ff_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{BurstModel, ChannelModel, ErrorModel, OutageSchedule, RetryPolicy};

/// Fast-forward on ≡ off ≡ the reference oracle, request by request, on
/// every scheme, lossless and at 15 % loss under a two-retry budget.
#[test]
fn fast_forward_engine_matches_slow_engine_and_reference_oracle() {
    let airs = [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ];
    let base = Cell::single(0x0FF1, 60, 72, Arrivals::Cycles(8));
    check_all(&base.across(&SchemeKind::ALL, &airs));
}

/// A churning walk fast-forwards only up to the end of the epoch it was
/// built for, so the first bucket of the next program always reaches the
/// version check: on the scan-heavy schemes at 20 % churn, the outcomes —
/// skew and stale-restart counters included — are identical with
/// fast-forward on and off, and the scans still shed events, lossless, at
/// 10 % i.i.d. loss, and behind a Gilbert–Elliott chain with outages
/// under bounded back-off.
#[test]
fn fast_forward_never_skips_a_version_skew_event() {
    let burst = ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
        .with_outages(OutageSchedule::new(3_000, 300, 0x0A7));
    let airs = [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (ErrorModel::new(0.10, 0x717).into(), RetryPolicy::UNBOUNDED),
        (
            burst,
            RetryPolicy::bounded(24)
                .with_backoff_cap(8)
                .with_jitter(0x117),
        ),
    ];
    let scans = [
        SchemeKind::Flat,
        SchemeKind::Signature,
        SchemeKind::IntegratedSignature,
        SchemeKind::MultiLevelSignature,
    ];
    let base = Cell {
        churn_pct: 20,
        ..Cell::single(0x0FF5, 48, 72, Arrivals::Cycles(20))
    };
    let cells = base.across(&scans, &airs);
    for (cell, stats) in cells.iter().zip(check_all(&cells)) {
        assert!(
            stats.fast_events < stats.slow_events,
            "{} under churn must fast-forward ({} ≥ {} events)\n{}",
            cell.kind.name(),
            stats.fast_events,
            stats.slow_events,
            cell.describe()
        );
    }
}
