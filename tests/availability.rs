//! Data-availability behaviour (the regime of Fig. 5): absent keys must be
//! reported correctly by every scheme, and the *cost* of discovering
//! absence must follow the paper's analysis — index schemes learn it from
//! the index, scanning schemes pay a whole cycle.

use bda::prelude::*;

fn fixtures() -> (Dataset, Vec<Key>) {
    DatasetBuilder::new(300, 0xA11)
        .build_with_absent_pool(300)
        .unwrap()
}

fn systems(ds: &Dataset, params: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, params).unwrap()).into()
}

#[test]
fn absent_keys_are_never_found() {
    let (ds, pool) = fixtures();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        for (i, k) in pool.iter().enumerate().take(100) {
            let out = sys.probe(*k, i as u64 * 7919);
            assert!(!out.found, "{}: phantom {k}", sys.scheme_name());
            assert!(!out.aborted, "{}", sys.scheme_name());
        }
    }
}

#[test]
fn btree_schemes_fail_fast_scanners_pay_a_cycle() {
    let (ds, pool) = fixtures();
    let params = Params::paper();
    let dt = u64::from(params.data_bucket_size());

    let dist = DistributedScheme::new().build(&ds, &params).unwrap();
    let one_m = OneMScheme::new().build(&ds, &params).unwrap();
    let flat = FlatScheme.build(&ds, &params).unwrap();
    let sig = SimpleSignatureScheme::new().build(&ds, &params).unwrap();

    let mut dist_t = 0u64;
    let mut onem_t = 0u64;
    let mut flat_t = 0u64;
    let mut sig_t = 0u64;
    let n = 50u64;
    for (i, k) in pool.iter().enumerate().take(n as usize) {
        let t = i as u64 * 104_729;
        dist_t += dist.probe(*k, t).tuning;
        onem_t += one_m.probe(*k, t).tuning;
        flat_t += flat.probe(*k, t).tuning;
        sig_t += sig.probe(*k, t).tuning;
    }
    let (dist_t, onem_t, flat_t, sig_t) = (dist_t / n, onem_t / n, flat_t / n, sig_t / n);

    // B+-tree schemes: a handful of index probes.
    assert!(dist_t <= 10 * dt, "distributed fail tuning {dist_t}");
    assert!(onem_t <= 10 * dt, "(1,m) fail tuning {onem_t}");
    // Flat: the whole cycle is listened to.
    assert!(flat_t >= 300 * dt, "flat fail tuning {flat_t}");
    // Signature: every signature bucket (≈ 24 bytes each) is examined —
    // far beyond the tree schemes' handful of probes, far below flat's
    // full-cycle listen.
    let it = u64::from(params.header_size) + 16; // default SigParams
    assert!(
        sig_t > 250 * it && sig_t < flat_t / 4,
        "signature fail tuning {sig_t} (flat {flat_t})"
    );
    assert!(
        sig_t > dist_t * 2,
        "signature ({sig_t}) ≫ tree schemes ({dist_t}) on failures"
    );
}

#[test]
fn hashing_absence_costs_one_chain() {
    let (ds, pool) = fixtures();
    let params = Params::paper();
    let sys = HashScheme::new().build(&ds, &params).unwrap();
    for (i, k) in pool.iter().enumerate().take(60) {
        let out = sys.probe(*k, i as u64 * 31_337);
        assert!(!out.found);
        // Locate (≤2 reads) + slot + short chain.
        assert!(out.probes <= 12, "probes={}", out.probes);
    }
}

#[test]
fn simulated_found_rate_tracks_availability() {
    let (ds, pool) = fixtures();
    let params = Params::paper();
    let sys = DistributedScheme::new().build(&ds, &params).unwrap();
    for pct in [0.0f64, 0.4, 1.0] {
        let workload = QueryWorkload::new(&ds, pool.clone(), pct, Popularity::Uniform, 3);
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 3;
        cfg.max_rounds = 3;
        cfg.driver = Driver::Walker;
        let report = Simulator::new(&sys, workload, cfg).run();
        let rate = report.found as f64 / report.requests as f64;
        assert!(
            (rate - pct).abs() < 0.08,
            "availability {pct}: found rate {rate}"
        );
        assert_eq!(report.aborted, 0);
    }
}
