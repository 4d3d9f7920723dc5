//! Qualitative reproduction of the paper's figures: who wins, by what
//! order, where behaviour changes. These are the §4–§5 claims the bench
//! harness regenerates quantitatively; here they gate the test suite.

use bda::prelude::*;

fn mean(
    sys: &dyn DynSystem,
    ds: &Dataset,
    availability: f64,
    pool: &[Key],
    seed: u64,
) -> (f64, f64) {
    let workload = QueryWorkload::new(ds, pool.to_vec(), availability, Popularity::Uniform, seed);
    let mut cfg = SimConfig::quick();
    cfg.driver = Driver::Walker;
    let r = Simulator::new(sys, workload, cfg).run();
    assert_eq!(r.aborted, 0, "{}", sys.scheme_name());
    (r.mean_access(), r.mean_tuning())
}

/// Fig. 4 orderings at 100 % availability.
#[test]
fn fig4_orderings() {
    let nr = 2_000;
    let (ds, _) = DatasetBuilder::new(nr, 41)
        .build_with_absent_pool(1)
        .unwrap();
    let p = Params::paper();

    let flat = FlatScheme.build(&ds, &p).unwrap();
    let dist = DistributedScheme::new().build(&ds, &p).unwrap();
    let hash = HashScheme::new().build(&ds, &p).unwrap();
    let sig = SimpleSignatureScheme::new().build(&ds, &p).unwrap();

    let (at_flat, tt_flat) = mean(&flat, &ds, 1.0, &[], 1);
    let (at_dist, tt_dist) = mean(&dist, &ds, 1.0, &[], 2);
    let (at_hash, tt_hash) = mean(&hash, &ds, 1.0, &[], 3);
    let (at_sig, tt_sig) = mean(&sig, &ds, 1.0, &[], 4);

    // Fig. 4(a): flat ≤ signature < distributed < hashing.
    assert!(at_flat < at_sig, "flat has the best access time");
    assert!(at_sig < at_dist, "signature beats distributed on access");
    assert!(at_dist < at_hash, "hashing has the worst access time");

    // Fig. 4(b): hashing < distributed < signature ≪ flat.
    assert!(tt_hash < tt_dist, "hashing has the best tuning time");
    assert!(tt_dist < tt_sig, "distributed beats signature on tuning");
    assert!(
        tt_sig < tt_flat / 2.0,
        "flat tuning is far worse than any index"
    );
}

/// Fig. 4(b): distributed tuning is a step function of Nr (jumps only when
/// the tree gains a level), while signature tuning grows linearly.
#[test]
fn fig4_tuning_growth_shapes() {
    let p = Params::paper();
    let sizes = [1_000usize, 2_000, 4_000];
    let mut dist_t = Vec::new();
    let mut sig_t = Vec::new();
    for (i, &nr) in sizes.iter().enumerate() {
        let ds = DatasetBuilder::new(nr, 50 + i as u64).build().unwrap();
        let dist = DistributedScheme::new().build(&ds, &p).unwrap();
        let sig = SimpleSignatureScheme::new().build(&ds, &p).unwrap();
        dist_t.push(mean(&dist, &ds, 1.0, &[], 9).1);
        sig_t.push(mean(&sig, &ds, 1.0, &[], 9).1);
    }
    // Signature tuning scales ~linearly (×4 records → ~×4 tuning).
    let growth = sig_t[2] / sig_t[0];
    assert!((3.0..5.0).contains(&growth), "signature growth {growth}");
    // Distributed tuning moves by at most ~1 bucket across the same range
    // (k is constant or +1).
    let dt = f64::from(p.data_bucket_size());
    assert!(
        (dist_t[2] - dist_t[0]).abs() <= 1.5 * dt,
        "distributed tuning nearly flat: {dist_t:?}"
    );
}

/// Fig. 5: low availability favours the B+-tree schemes; high availability
/// favours signature (access) and hashing (tuning); hashing access is flat
/// in availability.
#[test]
fn fig5_availability_crossover() {
    let nr = 2_000;
    let (ds, pool) = DatasetBuilder::new(nr, 43)
        .build_with_absent_pool(nr)
        .unwrap();
    let p = Params::paper();

    let dist = DistributedScheme::new().build(&ds, &p).unwrap();
    let hash = HashScheme::new().build(&ds, &p).unwrap();
    let sig = SimpleSignatureScheme::new().build(&ds, &p).unwrap();

    // Tuning at 0 %: distributed ≪ signature, and failure detection costs
    // the trees no more than success (they read only the index).
    let (_, tt_dist0) = mean(&dist, &ds, 0.0, &pool, 11);
    let (_, tt_sig0) = mean(&sig, &ds, 0.0, &pool, 13);
    assert!(tt_dist0 < tt_sig0 / 5.0, "trees detect absence cheaply");
    let (_, tt_dist1_pre) = mean(&dist, &ds, 1.0, &[], 19);
    assert!(
        tt_dist0 < tt_dist1_pre * 1.1,
        "tree failure detection no dearer than success"
    );
    // The paper's "hashing must still read all overflow buckets" point
    // shows with a realistically imperfect hash: then the trees win tuning
    // at 0 % availability. (With our perfectly mixed default hash, chains
    // are so short that hashing stays marginally cheaper — the deviation
    // documented in EXPERIMENTS.md.)
    let lossy_hash = HashScheme::new()
        .with_hash(HashFn::Clustered { factor: 4 })
        .build(&ds, &p)
        .unwrap();
    let (_, tt_badhash0) = mean(&lossy_hash, &ds, 0.0, &pool, 12);
    assert!(
        tt_dist0 < tt_badhash0,
        "trees beat an imperfect hash at 0% availability: {tt_dist0} vs {tt_badhash0}"
    );

    // Tuning at 100 %: hashing wins.
    let (_, tt_dist1) = mean(&dist, &ds, 1.0, &[], 14);
    let (_, tt_hash1) = mean(&hash, &ds, 1.0, &[], 15);
    assert!(tt_hash1 < tt_dist1, "hashing wins tuning at 100%");

    // Hashing access time is (nearly) independent of availability.
    let (at_hash0, _) = mean(&hash, &ds, 0.0, &pool, 16);
    let (at_hash1, _) = mean(&hash, &ds, 1.0, &[], 17);
    let rel = (at_hash0 - at_hash1).abs() / at_hash1;
    assert!(rel < 0.08, "hashing access flat in availability: {rel}");

    // Signature tuning decreases as availability rises (no full scans).
    let (_, tt_sig1) = mean(&sig, &ds, 1.0, &[], 18);
    assert!(
        tt_sig1 < tt_sig0,
        "signature tuning drops with availability"
    );
}

/// Fig. 6: the record/key ratio strongly affects only the B+-tree schemes;
/// at large ratios they approach hashing's tuning time.
#[test]
fn fig6_ratio_effects() {
    let nr = 2_000;
    let ds = DatasetBuilder::new(nr, 44).build().unwrap();

    let at_ratio = |ratio: u32| {
        let p = Params::with_record_key_ratio(ratio).unwrap();
        let dist = DistributedScheme::new().build(&ds, &p).unwrap();
        let hash = HashScheme::new().build(&ds, &p).unwrap();
        let (at_d, tt_d) = mean(&dist, &ds, 1.0, &[], 21);
        let (at_h, tt_h) = mean(&hash, &ds, 1.0, &[], 22);
        (at_d, tt_d, at_h, tt_h)
    };

    let (at_d5, tt_d5, at_h5, _tt_h5) = at_ratio(5);
    let (at_d100, tt_d100, at_h100, tt_h100) = at_ratio(100);

    // Small ratio: the index overhead balloons the tree scheme's access
    // time relative to its own large-ratio behaviour.
    let d_gain = (at_d5 / at_h5) / (at_d100 / at_h100);
    assert!(
        d_gain > 1.15,
        "distributed improves relative to hashing as the ratio grows: {d_gain}"
    );

    // Large ratio: tree tuning approaches hashing tuning (within ~2×).
    assert!(
        tt_d100 < 2.0 * tt_h100,
        "distributed tuning near hashing at ratio 100: {tt_d100} vs {tt_h100}"
    );
    // And tree tuning shrinks as the ratio grows (fewer, shallower levels).
    assert!(
        tt_d100 < tt_d5,
        "tuning falls with the ratio: {tt_d100} vs {tt_d5}"
    );
}

/// §5.3 summary, rule (5): at large record/key ratios, (1,m) is preferable
/// on access time and distributed on tuning-time-adjusted balance.
#[test]
fn selection_rule_one_m_vs_distributed() {
    let nr = 2_000;
    let ds = DatasetBuilder::new(nr, 45).build().unwrap();
    let p = Params::paper();
    let one_m = OneMScheme::new().build(&ds, &p).unwrap();
    let dist = DistributedScheme::new().build(&ds, &p).unwrap();
    let (at_1m, tt_1m) = mean(&one_m, &ds, 1.0, &[], 31);
    let (at_d, tt_d) = mean(&dist, &ds, 1.0, &[], 32);
    // Distributed trims the cycle, so it wins access time at the optimum…
    assert!(at_d < at_1m, "distributed access {at_d} vs (1,m) {at_1m}");
    // …while both share the (k + const)·Dt tuning class.
    let dt = f64::from(p.data_bucket_size());
    assert!((tt_1m - tt_d).abs() < 2.0 * dt);
}
