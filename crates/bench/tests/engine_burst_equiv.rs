//! Driver agreement under Gilbert–Elliott burst loss, scheduled carrier
//! outages and both at once, through the conformance wall
//! (`bda_bench::conformance`), which the matrix (`conformance.rs`) also
//! runs on its burst column. That a degenerate burst channel is the
//! i.i.d. channel is `crates/sim/tests/engine_burst_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{BurstModel, ChannelModel, ErrorModel, OutageSchedule, RetryPolicy};

/// Exponential back-off with seeded jitter exercises resynchronization;
/// the bound keeps dead-air walks finite.
fn resync() -> RetryPolicy {
    RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(0x1EE7)
}

/// Every driver agrees on every scheme behind pure burst loss, burst loss
/// with outages, and i.i.d. loss with outages, and every air corrupts
/// some read.
#[test]
fn all_drivers_agree_under_burst_and_outages() {
    let burst = BurstModel::new(0.05, 0.25, 0.0, 1.0, 0xFA57);
    let outages = OutageSchedule::new(2_500, 250, 0x0A7);
    let airs = [
        ChannelModel::burst(burst),
        ChannelModel::burst(burst).with_outages(outages),
        ChannelModel::iid(ErrorModel::new(0.10, 7)).with_outages(outages),
    ]
    .map(|air| (air, resync()));
    let base = Cell::single(0xB1257, 60, 72, Arrivals::Within(9_000));
    check_all(&base.across(&SchemeKind::ALL, &airs));
}

/// A churning program behind burst loss and outages: every driver reports
/// the same outcomes, skew and stale-restart counters included, and 20 %
/// churn skews some walk of every scheme.
#[test]
fn churning_program_agrees_across_drivers_under_burst() {
    let air = ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0x717))
        .with_outages(OutageSchedule::new(2_000, 200, 0x0A7));
    let base = Cell {
        churn_pct: 20,
        ..Cell::single(0xB1258, 48, 48, Arrivals::Within(9_000))
    };
    let kinds = [
        SchemeKind::Flat,
        SchemeKind::Distributed,
        SchemeKind::Signature,
    ];
    check_all(&base.across(&kinds, &[(air, resync())]));
}

/// Outage windows bite and recovery is truthful: on air that is dead a
/// third of the time every scheme retries, a two-retry budget abandons
/// rather than answers wrongly, and no abandoned query is found.
#[test]
fn outage_recovery_is_truthful() {
    let air =
        ChannelModel::iid(ErrorModel::NONE).with_outages(OutageSchedule::new(1_500, 500, 0xDEAD));
    let base = Cell::single(0xB1259, 60, 72, Arrivals::Within(9_000));
    let cells = base.across(&SchemeKind::ALL, &[(air, RetryPolicy::bounded(2))]);
    let abandoned: u64 = check_all(&cells).iter().map(|s| s.abandoned).sum();
    assert!(
        abandoned > 0,
        "a 2-retry budget must abandon under 33% outages"
    );
}
