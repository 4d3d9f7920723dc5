//! Internal validity of the testbed: the discrete-event engine, the
//! fast-forwarding direct walker and a bucket-by-bucket stepped walk
//! execute the same protocol machines, so their outcomes must be
//! *identical* — per request, for every scheme.

use bda::core::{ChannelModel, RetryPolicy, WalkStep};
use bda::prelude::*;
use bda::sim::Engine;

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
fn event_engine_equals_direct_walker_per_request() {
    let (ds, pool) = DatasetBuilder::new(250, 0xD1CE)
        .build_with_absent_pool(50)
        .unwrap();
    let params = Params::paper();
    // A mixed batch: hits and misses, bursty and spread arrivals.
    let mut requests: Vec<(Ticks, Key)> = Vec::new();
    for i in 0..300u64 {
        let key = if i % 5 == 4 {
            pool[(i as usize / 5) % pool.len()]
        } else {
            ds.record((i as usize * 7) % ds.len()).key
        };
        let arrival = (i * 13_331) % 4_000_000 + (i % 3) * 17;
        requests.push((arrival, key));
    }

    for sys in systems(&ds, &params) {
        let evented = Engine::new(sys.as_ref()).run_batch(&requests);
        for (res, &(t, k)) in evented.iter().zip(&requests) {
            let direct = sys.probe(k, t);
            assert_eq!(
                res.outcome,
                direct,
                "{}: divergence at t={t} key={k}",
                sys.scheme_name()
            );
            // A fresh slot never fast-forwards: it steps every bucket.
            let mut slot = sys.make_slot_channel(ChannelModel::NONE, RetryPolicy::UNBOUNDED);
            slot.start(k, t);
            let stepped = loop {
                if let WalkStep::Done(out) = slot.step() {
                    break out;
                }
            };
            assert_eq!(
                stepped,
                direct,
                "{}: stepped walk diverged at t={t} key={k}",
                sys.scheme_name()
            );
        }
    }
}

#[test]
fn simulator_fast_path_equals_event_path_for_all_schemes() {
    let ds = DatasetBuilder::new(150, 0xBEEF).build().unwrap();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.round_requests = 100;
        cfg.driver = Driver::ENGINE;
        let a = Simulator::uniform(sys.as_ref(), &ds, cfg).run();
        cfg.driver = Driver::Walker;
        let b = Simulator::uniform(sys.as_ref(), &ds, cfg).run();
        assert_eq!(a.access, b.access, "{}", sys.scheme_name());
        assert_eq!(a.tuning, b.tuning, "{}", sys.scheme_name());
        assert_eq!(a.found, b.found, "{}", sys.scheme_name());
        assert_eq!(a.false_drops, b.false_drops, "{}", sys.scheme_name());
    }
}

#[test]
fn stepping_runs_report_monotone_time() {
    let ds = DatasetBuilder::new(100, 3).build().unwrap();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let mut run = sys.make_slot_channel(ChannelModel::NONE, RetryPolicy::UNBOUNDED);
        run.start(ds.record(50).key, 777);
        let mut last = 0u64;
        loop {
            match run.step() {
                WalkStep::Read { from, until, .. } => {
                    assert!(from >= last && until > from, "{}", sys.scheme_name());
                    last = until;
                }
                WalkStep::Doze { until } => {
                    assert!(until >= last, "{}", sys.scheme_name());
                    last = until;
                }
                WalkStep::Done(out) => {
                    assert!(out.found);
                    break;
                }
            }
        }
    }
}
