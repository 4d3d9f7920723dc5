//! Internal validity of the testbed: the discrete-event engine, the
//! fast-forwarding direct walker and a bucket-by-bucket stepped walk
//! execute the same protocol machines, so their outcomes must be
//! *identical* — per request, for every scheme — and so must the reports
//! of the simulator's two drivers. Per-request agreement runs through the
//! conformance wall (`bda_bench::conformance`), as on every cell of the
//! matrix (`crates/bench/tests/conformance.rs`).

use bda::core::{BurstModel, ChannelModel, OutageSchedule, RetryPolicy};
use bda::prelude::*;
use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;

fn systems(ds: &Dataset, params: &Params) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(FlatScheme.build(ds, params).unwrap()),
        Box::new(OneMScheme::new().build(ds, params).unwrap()),
        Box::new(DistributedScheme::new().build(ds, params).unwrap()),
        Box::new(HashScheme::new().build(ds, params).unwrap()),
        Box::new(SimpleSignatureScheme::new().build(ds, params).unwrap()),
        Box::new(IntegratedSignatureScheme::new(6).build(ds, params).unwrap()),
        Box::new(MultiLevelSignatureScheme::new(6).build(ds, params).unwrap()),
        Box::new(HybridScheme::new().build(ds, params).unwrap()),
    ]
}

#[test]
fn simulator_fast_path_equals_event_path_for_all_schemes() {
    let ds = DatasetBuilder::new(150, 0xBEEF).build().unwrap();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let name = sys.scheme_name();
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.round_requests = 100;
        cfg.driver = Driver::ENGINE;
        let a = Simulator::uniform(sys.as_ref(), &ds, cfg).run();
        cfg.driver = Driver::Walker;
        let b = Simulator::uniform(sys.as_ref(), &ds, cfg).run();
        assert_eq!(a.access, b.access, "{name}");
        assert_eq!(a.tuning, b.tuning, "{name}");
        assert_eq!(a.found, b.found, "{name}");
        assert_eq!(a.false_drops, b.false_drops, "{name}");
    }
}

/// The slab engine, the direct walker and a fresh stepped slot (which
/// never fast-forwards) report the same outcome for every request of a
/// mixed batch — hits and misses spread over four million ticks — on
/// every scheme, as do the wall's other drivers.
#[test]
fn event_engine_equals_direct_walker_per_request() {
    let lossless = (ChannelModel::NONE, RetryPolicy::UNBOUNDED);
    let base = Cell::single(0xD1CE, 250, 300, Arrivals::Within(4_000_000));
    check_all(&base.across(&SchemeKind::ALL, &[lossless]));
}

/// A stepped walk reports its reads and dozes in time order — every read
/// starts at or after the previous step's end and takes time, no doze
/// goes back — on every scheme, lossless and behind burst loss with
/// outages, where back-offs doze across whole cycles.
#[test]
fn stepping_runs_report_monotone_time() {
    let burst = ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0x57E9))
        .with_outages(OutageSchedule::new(2_500, 250, 0x0A7));
    let airs = [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            burst,
            RetryPolicy::bounded(24)
                .with_backoff_cap(8)
                .with_jitter(0x1EE7),
        ),
    ];
    let base = Cell::single(3, 100, 40, Arrivals::Cycles(4));
    check_all(&base.across(&SchemeKind::ALL, &airs));
}
