//! Driver agreement on stratified programs, frozen and churning, over
//! lossless air, 15 % i.i.d. loss and burst loss with outages, through the
//! conformance wall (`bda_bench::conformance`), beside the matrix's disk
//! cells (`conformance.rs`). That broadcast disks pay off under skewed
//! demand is `crates/sim/tests/engine_disks_equiv.rs`.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{BurstModel, ChannelModel, DiskConfig, ErrorModel, OutageSchedule, RetryPolicy};
use bda_sim::Layout;

/// `churn-lossy`'s air: a Gilbert–Elliott chain (4 % → bad, 20 % → good,
/// 90 % loss while bad) with a 300-tick outage every 3 000 ticks, under
/// a bounded, capped and jittered exponential back-off.
fn burst_air() -> (ChannelModel, RetryPolicy) {
    (
        ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
            .with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
        RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x117),
    )
}

/// Lossless with unbounded retries, 15 % loss with a bounded policy so
/// abandonment paths are exercised on stratified programs too, and burst
/// loss with outages.
fn fault_modes() -> [(ChannelModel, RetryPolicy); 3] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
        burst_air(),
    ]
}

/// A cell on three broadcast disks: `requests` queries over 60 records,
/// tuned in over the first `cycles` major cycles. [`Cell::across`] sets
/// its scheme and air.
fn disk_cell(seed: u64, requests: usize, cycles: u64, churn_pct: u32) -> Cell {
    Cell {
        churn_pct,
        layout: Layout::Disks(DiskConfig::new(3)),
        ..Cell::single(seed, 60, requests, Arrivals::Cycles(cycles))
    }
}

fn disk_kinds() -> Vec<SchemeKind> {
    SchemeKind::ALL
        .into_iter()
        .filter(|k| k.has_disks())
        .collect()
}

/// The slab engine, the reference oracle, the direct walker and the
/// sharded engine at every shard count agree request by request on every
/// stratified program, and their outcome counters match at every shard
/// count.
#[test]
fn disk_outcomes_agree_across_all_drivers_and_shard_counts() {
    let cells = disk_cell(0xD15C, 90, 12, 0).across(&disk_kinds(), &fault_modes());
    check_all(&cells);
}

/// The fast-forwarding walker is exact on stratified programs: outcomes
/// and hubs match the bucket-by-bucket path bit for bit, and the jump
/// never adds scheduler events. (That the flat-disk program still
/// collapses its events is `crates/sim/tests/ff_equiv.rs`'s collapse test.)
#[test]
fn fast_forward_is_exact_on_stratified_programs() {
    let cells = disk_cell(0xD15D, 72, 8, 0).across(&disk_kinds(), &fault_modes());
    check_all(&cells);
}

/// Merged observability is exact on stratified programs: span sums and
/// the access, tuning and retry histograms (so every percentile) of each
/// sharded merge equal the single engine's, at 15 % loss and on burst
/// loss with outages.
#[test]
fn observed_metrics_merge_exactly_on_stratified_programs() {
    let iid = (ErrorModel::new(0.15, 0x717).into(), RetryPolicy::bounded(3));
    let cells = disk_cell(0xD15E, 90, 12, 0).across(&disk_kinds(), &[iid, burst_air()]);
    check_all(&cells);
}

/// At 20 % churn, stratified programs stay driver- and shard-invariant —
/// stale restarts and version skews included — over every air.
#[test]
fn churned_stratified_programs_are_shard_invariant() {
    let cells = disk_cell(0xD15F, 70, 16, 20).across(&disk_kinds(), &fault_modes());
    check_all(&cells);
}
