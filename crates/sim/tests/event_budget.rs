//! Event-budget smoke: the analytical fast-forward layer's throughput
//! repair rests on one invariant — a scan-heavy query costs O(1)
//! scheduler events, not O(cycle). This pins `events / requests` under a
//! small per-scheme constant so an accidental slow-path regression (a
//! machine that stops fast-forwarding, a slot that drops the setting)
//! fails fast instead of quietly costing 100× in the benches.
//!
//! Budgets are deliberately loose versus the measured ratios (about 2×
//! headroom) but *tiny* versus the slow path: flat at 320 records burns
//! ~480 events per request bucket-by-bucket; the budget is 4. Churning
//! programs get their own budgets: a scan fast-forwards only up to the end
//! of the epoch on air, then pays a slow-path read for the version skew.
//! Corrupted reads cost no events of their own: a planner recovers them in
//! place and runs on, so lossy air has budgets per request too.

use bda_core::{
    BurstModel, ChannelModel, Dataset, DynSystem, ErrorModel, GroupConfig, Key, OutageSchedule,
    Params, RetryPolicy,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, Layout, SchemeKind, UpdateSpec};

type Air = (ChannelModel, RetryPolicy);

const LOSSLESS: Air = (ChannelModel::NONE, RetryPolicy::UNBOUNDED);

/// (scheme, max scheduler events per completed request, lossless).
fn budgeted_systems(ds: &Dataset, p: &Params) -> Vec<(Box<dyn DynSystem>, f64)> {
    scans([4.0, 6.0, 6.0, 8.0], |k| k.build(ds, p))
}

/// The four scan schemes, each built by `build` and paired with its
/// budget (flat's 4: one initial probe, one fast-forwarded landing, one
/// finish).
fn scans(
    budgets: [f64; 4],
    build: impl Fn(SchemeKind) -> bda_core::Result<Box<dyn DynSystem>>,
) -> Vec<(Box<dyn DynSystem>, f64)> {
    [
        SchemeKind::Flat,
        SchemeKind::Signature,
        SchemeKind::IntegratedSignature,
        SchemeKind::MultiLevelSignature,
    ]
    .into_iter()
    .zip(budgets)
    .map(|(kind, budget)| (build(kind).unwrap(), budget))
    .collect()
}

fn request_mix(ds: &Dataset, pool: &[Key], n: usize, span: u64) -> Vec<(u64, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t % span.max(1), key)
        })
        .collect()
}

/// Run 200 requests over eight cycles of `sys` through a default
/// (fast-forwarding) engine behind `air` and assert the events per request
/// stay within `budget`.
fn assert_within_budget(
    sys: &dyn DynSystem,
    label: &str,
    ds: &Dataset,
    pool: &[Key],
    budget: f64,
    (channel, policy): Air,
) {
    let requests = request_mix(ds, pool, 200, 8 * sys.cycle_len());
    let mut engine = Engine::with_channel(sys, channel, policy);
    let done = engine.run_batch(&requests);
    assert_eq!(done.len(), requests.len());
    let stats = engine.stats();
    let n = requests.len() as f64;
    let ratio = stats.events as f64 / n;
    let retries = stats.corrupt_reads as f64 / n;
    assert!(
        ratio <= budget,
        "{label}: {ratio:.2} events/request exceeds the budget of {budget} \
         ({retries:.2} retries/request)"
    );
    println!(
        "{label:<26} {ratio:.2} events/request (budget {budget}), {retries:.2} retries/request"
    );
}

#[test]
fn scan_heavy_schemes_stay_within_their_event_budget() {
    let (ds, pool) = DatasetBuilder::new(320, 0xB0D6)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    for (sys, budget) in budgeted_systems(&ds, &params) {
        assert_within_budget(
            sys.as_ref(),
            sys.scheme_name(),
            &ds,
            &pool,
            budget,
            LOSSLESS,
        );
    }
}

/// 20 % of the records change at every cycle boundary, for 16 cycles.
const CHURN: UpdateSpec = UpdateSpec {
    rate: 0.20,
    seed: 0xABC7,
    horizon_cycles: 16,
};

fn churning(ds: &Dataset, budgets: [f64; 4]) -> Vec<(Box<dyn DynSystem>, f64)> {
    scans(budgets, |k| k.build_versioned(ds, &Params::paper(), CHURN))
}

/// The same scans on churning programs: versioned slots must honour the
/// engine's fast-forward setting, epoch by epoch. The 2-channel striped
/// row fails if the routing slot drops the setting. Measured with
/// fast-forward: 3.63 (flat), 5.25 (simple), 4.42 (integrated), 4.39
/// (multilevel) and 3.66 (striped flat) events per request; bucket by
/// bucket, 257, 526, 88, 110 and 141.
#[test]
fn churning_scan_schemes_stay_within_their_event_budget() {
    let (ds, pool) = DatasetBuilder::new(320, 0xB0D6)
        .build_with_absent_pool(10)
        .unwrap();
    let striped = Layout::Striped {
        group: GroupConfig::new(2, 256).unwrap(),
        partition: None,
    };
    let striped = SchemeKind::Flat
        .build_on(&ds, &Params::paper(), &striped, Some(CHURN))
        .expect("a churning group stripes evenly")
        .unwrap();
    for (sys, budget) in churning(&ds, [7.0, 10.0, 9.0, 9.0]) {
        assert_within_budget(
            sys.as_ref(),
            sys.scheme_name(),
            &ds,
            &pool,
            budget,
            LOSSLESS,
        );
    }
    let label = "flat, 2 striped channels";
    assert_within_budget(striped.as_ref(), label, &ds, &pool, 7.0, LOSSLESS);
}

/// Corrupted reads are mechanical for a scan: the planner recovers them in
/// place, back-offs included, so a lossy scan obeys the lossless budget
/// however many reads the air corrupts (measured: 2.04, 2.88, 2.27 and
/// 2.15 events per request at 2.7–2.9 retries per request). Two more airs
/// get budgets of their own, at about twice their measured events per
/// request: i.i.d. loss with unbounded retries, whose scans run longer and
/// never give up (3.20, 3.90, 3.25, 3.17 at 14–59 retries per request),
/// and the `churn-lossy` benchmark workload's burst chain, outage windows
/// and jittered exponential back-off over the churning programs above
/// (10.79, 11.62, 11.17, 10.70 at about 23 retries per request). A planner
/// that stops at every corrupted read costs 17–62 and 51–53 there.
#[test]
fn lossy_scans_stay_within_their_event_budget() {
    let (ds, pool) = DatasetBuilder::new(320, 0xB0D7)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let iid = ChannelModel::iid(ErrorModel::new(0.15, 0xFA57));
    let unbounded = [7.0, 8.0, 7.0, 7.0];
    for ((sys, budget), loose) in budgeted_systems(&ds, &params).into_iter().zip(unbounded) {
        let name = sys.scheme_name();
        let bounded = (iid, RetryPolicy::bounded(2));
        assert_within_budget(sys.as_ref(), name, &ds, &pool, budget, bounded);
        let label = format!("{name}, unbounded retries");
        let unbounded = (iid, RetryPolicy::UNBOUNDED);
        assert_within_budget(sys.as_ref(), &label, &ds, &pool, loose, unbounded);
    }
    let burst = (
        ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
            .with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
        RetryPolicy::bounded(24)
            .with_backoff_cap(8)
            .with_jitter(0x117),
    );
    for (sys, budget) in churning(&ds, [22.0, 24.0, 22.0, 22.0]) {
        let label = format!("{}, churning, burst", sys.scheme_name());
        assert_within_budget(sys.as_ref(), &label, &ds, &pool, budget, burst);
    }
}
