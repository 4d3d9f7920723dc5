//! Observability through the conformance wall (`bda_bench::conformance`):
//! on every configuration below, as on the matrix's cells
//! (`conformance.rs`), spans add up to every query's access and tuning,
//! `Retry` spans equal corrupted reads and `StaleRecovery` spans version
//! skews, fast-forward and windowing change no span, and observation
//! perturbs no outcome. The phase mix and the simulator's observed run
//! are `crates/sim/tests/obs_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{BurstModel, ChannelModel, ErrorModel, OutageSchedule, RetryPolicy};

/// Lossless air, and 15 % loss under a two-retry budget.
fn lossless_and_lossy() -> [(ChannelModel, RetryPolicy); 2] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ]
}

/// Spans account for every tick on every scheme: their sums equal each
/// query's access and tuning, dozing costs no tuning, and on lossless air
/// every query opens with one initial probe.
#[test]
fn spans_account_every_tick_on_every_scheme() {
    let base = Cell::single(0x0B5E, 60, 90, Arrivals::Cycles(8));
    check_all(&base.across(&SchemeKind::ALL, &lossless_and_lossy()));
}

/// Under 20 % churn version skews surface as `StaleRecovery` spans, one
/// per skew, and the accounting stays exact across program switches and
/// respawns, with and without loss.
#[test]
fn dynamic_spans_attribute_version_skew_to_stale_recovery() {
    let airs = [ChannelModel::NONE, ErrorModel::new(0.10, 0x717).into()]
        .map(|air| (air, RetryPolicy::UNBOUNDED));
    let base = Cell {
        churn_pct: 20,
        ..Cell::single(0x5EED, 60, 80, Arrivals::Cycles(20))
    };
    check_all(&base.across(&SchemeKind::ALL, &airs));
}

/// The span hub is the same with fast-forward on and off on every scheme,
/// lossless and lossy, and on the scan schemes at 20 % churn, where a
/// walk fast-forwards within each epoch and so spends fewer events.
#[test]
fn fast_forwarded_spans_match_bucket_by_bucket_on_every_scheme() {
    let base = Cell::single(0x0FF0, 60, 80, Arrivals::Cycles(8));
    check_all(&base.across(&SchemeKind::ALL, &lossless_and_lossy()));
    let churning = Cell {
        churn_pct: 20,
        arrivals: Arrivals::Cycles(20),
        ..base
    };
    let scans = [
        SchemeKind::Flat,
        SchemeKind::Signature,
        SchemeKind::IntegratedSignature,
        SchemeKind::MultiLevelSignature,
    ];
    let airs = [ChannelModel::NONE, ErrorModel::new(0.10, 0x717).into()]
        .map(|air| (air, RetryPolicy::bounded(2)));
    let cells = churning.across(&scans, &airs);
    for (cell, stats) in cells.iter().zip(check_all(&cells)) {
        assert!(
            stats.fast_events < stats.slow_events,
            "{} under churn: scans must fast-forward within an epoch\n{}",
            cell.kind.name(),
            cell.describe()
        );
    }
}

/// Windowed observation is as invisible as aggregate observation: the
/// windowed engine's outcomes equal the plain engine's and its hub, with
/// the windows taken out, the span recorder's — at 15 % loss and behind
/// burst loss with outages, where back-offs stretch walks across many
/// windows.
#[test]
fn timeline_observed_runs_are_bit_identical_to_plain_runs() {
    let burst = ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0xB0B))
        .with_outages(OutageSchedule::new(2_500, 250, 0x0A7));
    let resync = RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(0x1EE7);
    let airs = [lossless_and_lossy()[1], (burst, resync)];
    let base = Cell::single(0x0B5E, 60, 90, Arrivals::Cycles(8));
    check_all(&base.across(&SchemeKind::ALL, &airs));
}
