//! The paper's headline validation (Fig. 4): "the simulation results match
//! the analytical results very well". For every modelled scheme, the
//! testbed's converged means must sit within a few percent of the closed
//! forms of `bda-analytical`.

use bda::analytical as model;
use bda::prelude::*;

const NR: usize = 3_000;

fn report_for(sys: &dyn DynSystem, ds: &Dataset) -> SimReport {
    let mut cfg = SimConfig::quick();
    cfg.accuracy = 0.02;
    cfg.confidence = 0.99;
    cfg.driver = Driver::Walker;
    cfg.max_rounds = 600;
    let r = Simulator::uniform(sys, ds, cfg).run();
    assert!(r.converged, "{} did not converge", sys.scheme_name());
    assert_eq!(r.aborted, 0);
    r
}

fn assert_close(label: &str, measured: f64, modeled: f64, tol: f64) {
    let rel = (measured - modeled).abs() / modeled;
    assert!(
        rel < tol,
        "{label}: simulated {measured:.0} vs analytical {modeled:.0} (rel {rel:.3} > {tol})"
    );
}

#[test]
fn flat_matches_model() {
    let ds = DatasetBuilder::new(NR, 1).build().unwrap();
    let p = Params::paper();
    let sys = FlatScheme.build(&ds, &p).unwrap();
    let r = report_for(&sys, &ds);
    let m = model::flat(&p, NR);
    assert_close("flat access", r.mean_access(), m.access, 0.05);
    assert_close("flat tuning", r.mean_tuning(), m.tuning, 0.05);
}

#[test]
fn one_m_matches_model() {
    let ds = DatasetBuilder::new(NR, 2).build().unwrap();
    let p = Params::paper();
    let sys = OneMScheme::new().build(&ds, &p).unwrap();
    let r = report_for(&sys, &ds);
    let m = model::one_m(&p, NR, None);
    assert_close("(1,m) access", r.mean_access(), m.access, 0.08);
    assert_close("(1,m) tuning", r.mean_tuning(), m.tuning, 0.15);
}

#[test]
fn distributed_matches_model() {
    let ds = DatasetBuilder::new(NR, 3).build().unwrap();
    let p = Params::paper();
    let sys = DistributedScheme::new().build(&ds, &p).unwrap();
    let r = report_for(&sys, &ds);
    let m = model::distributed(&p, NR, None);
    assert_close("distributed access", r.mean_access(), m.access, 0.12);
    assert_close("distributed tuning", r.mean_tuning(), m.tuning, 0.20);
}

#[test]
fn hashing_matches_model() {
    let ds = DatasetBuilder::new(NR, 4).build().unwrap();
    let p = Params::paper();
    let sys = HashScheme::new().build(&ds, &p).unwrap();
    let r = report_for(&sys, &ds);
    let m = model::hash(&p, NR, sys.na(), sys.num_collisions());
    assert_close("hashing access", r.mean_access(), m.access, 0.08);
    assert_close("hashing tuning", r.mean_tuning(), m.tuning, 0.12);
}

/// Converged Zipf-workload report for a system (full availability, so
/// every request is answerable and `aborted` stays zero).
fn zipf_report(sys: &dyn DynSystem, ds: &Dataset, theta: f64, seed: u64) -> SimReport {
    let workload = QueryWorkload::new(ds, Vec::new(), 1.0, Popularity::Zipf(theta), seed);
    let mut cfg = SimConfig::quick();
    cfg.accuracy = 0.02;
    cfg.confidence = 0.99;
    cfg.driver = Driver::Walker;
    cfg.max_rounds = 600;
    let r = Simulator::new(sys, workload, cfg).run();
    assert!(r.converged, "{} did not converge", sys.scheme_name());
    assert_eq!(r.aborted, 0);
    r
}

/// The repetition-schedule closed form (weighted mean of per-record
/// inter-arrival gap costs) tracks the simulated stratified program across
/// the whole skew sweep, θ = 0 … 1.2, at D = 3.
#[test]
fn flat_disks_matches_model_across_skew() {
    let n = 600;
    let p = Params::paper();
    let config = DiskConfig::new(3);
    let layout = DiskLayout::new(n, &config);
    for (i, theta) in [0.0, 0.4, 0.8, 1.2].into_iter().enumerate() {
        let ds = DatasetBuilder::new(n, 60 + i as u64).build().unwrap();
        let sys = FlatDisksScheme::new(config).build(&ds, &p).unwrap();
        let r = zipf_report(&sys, &ds, theta, 600 + i as u64);
        let m = model::flat_disks(&p, layout.schedule(), &zipf_weights(n, theta));
        assert_close(
            &format!("flat-disks θ={theta} access"),
            r.mean_access(),
            m.access,
            0.05,
        );
        assert_close(
            &format!("flat-disks θ={theta} tuning"),
            r.mean_tuning(),
            m.tuning,
            0.05,
        );
    }
}

/// The point of stratification: at high skew (θ ≥ 0.8) the measured mean
/// access time of the D = 3 program strictly improves on the flat cycle
/// measured identically — and the analytical models predict the same
/// ordering.
#[test]
fn stratification_beats_the_flat_cycle_at_high_skew() {
    let n = 600;
    let p = Params::paper();
    let config = DiskConfig::new(3);
    let layout = DiskLayout::new(n, &config);
    for (i, theta) in [0.8, 1.2].into_iter().enumerate() {
        let ds = DatasetBuilder::new(n, 80 + i as u64).build().unwrap();
        let flat = FlatScheme.build(&ds, &p).unwrap();
        let disks = FlatDisksScheme::new(config).build(&ds, &p).unwrap();
        let seed = 800 + i as u64;
        let flat_at = zipf_report(&flat, &ds, theta, seed).mean_access();
        let disks_at = zipf_report(&disks, &ds, theta, seed).mean_access();
        assert!(
            disks_at < flat_at,
            "θ={theta}: D=3 measured At {disks_at:.0} must beat flat {flat_at:.0}"
        );
        let weights = zipf_weights(n, theta);
        let m_flat = model::flat(&p, n);
        let m_disks = model::flat_disks(&p, layout.schedule(), &weights);
        assert!(
            m_disks.access < m_flat.access,
            "θ={theta}: model ordering must agree ({} vs {})",
            m_disks.access,
            m_flat.access
        );
    }
}

/// Exact weighted measurement of a channel group's mean access time:
/// every dataset key is probed at `PHASES` evenly spaced tune-in phases
/// (from a per-key uniformly random base within eight group cycles) and
/// the per-key means are folded with the Zipf weights. Enumerating keys
/// removes the workload-sampling noise outright, and the systematic
/// phase grid (a random rotation of a regular grid is unbiased for the
/// uniform-phase mean) collapses the sawtooth-wait variance — so the
/// 5 % margin below is a statement about the model, not the estimator.
fn weighted_group_at(sys: &dyn DynSystem, ds: &Dataset, weights: &[f64], seed: u64) -> f64 {
    const PHASES: u64 = 64;
    let mut rng = Prng::new(seed);
    let cycle = sys.cycle_len();
    let span = cycle * 8;
    let stride = (cycle / PHASES).max(1);
    let mut at = 0.0;
    for (key, &w) in ds.keys().zip(weights) {
        let base = rng.below(span);
        let mut key_at = 0.0;
        for p in 0..PHASES {
            let out = sys.probe(key, (base + p * stride) % span);
            assert!(out.found, "{} lost a broadcast key", sys.scheme_name());
            key_at += out.access as f64;
        }
        at += w * key_at / PHASES as f64;
    }
    at
}

/// The air-time allocator's headline contract (multichannel extension):
/// across the K × switch-cost sweep at two skews, the closed-form
/// predicted mean access time of the partition it returns sits within
/// 5 % of the exact weighted measurement of the built striped group at
/// equal aggregate bandwidth.
#[test]
fn striped_allocator_matches_simulation_across_k_and_switch_cost() {
    let n = 400;
    let p = Params::paper();
    let ds = DatasetBuilder::new(n, 0xA110).build().unwrap();
    for theta in [0.8, 1.2] {
        let weights = zipf_weights(n, theta);
        for k in [1u32, 2, 4] {
            for sw in [0u64, 256, 2048] {
                let alloc = model::best_striped(&p, &weights, k, sw, model::flat);
                let config = GroupConfig::new(alloc.channels, sw).unwrap();
                let sys = StripedScheme::with_partition(FlatScheme, config, alloc.sizes.clone())
                    .build(&ds, &p)
                    .unwrap();
                let seed = 0xA110 ^ (u64::from(k) << 16) ^ sw ^ theta.to_bits();
                let at = weighted_group_at(&sys, &ds, &weights, seed);
                assert_close(
                    &format!("striped flat θ={theta} K={k} sw={sw} access"),
                    at,
                    alloc.predicted.access,
                    0.05,
                );
            }
        }
    }
    // The signature slice model holds at the K = 4 spotlight too.
    let weights = zipf_weights(n, 1.2);
    let sig = |pp: &Params, m: usize| model::signature(pp, &SigParams::default(), 4, m);
    let alloc = model::best_striped(&p, &weights, 4, 256, sig);
    let config = GroupConfig::new(alloc.channels, 256).unwrap();
    let sys =
        StripedScheme::with_partition(SimpleSignatureScheme::new(), config, alloc.sizes.clone())
            .build(&ds, &p)
            .unwrap();
    let at = weighted_group_at(&sys, &ds, &weights, 0x516);
    assert_close(
        "striped signature θ=1.2 K=4 sw=256 access",
        at,
        alloc.predicted.access,
        0.05,
    );
}

/// The allocator's dominance pin: even striping is inside the dynamic
/// program's search space, so the partition it returns can never predict
/// worse than naive even striping — across the whole skew × K ×
/// switch-cost grid — and at heavy skew the *measured* access times of
/// the two built groups confirm the ordering on the air.
#[test]
fn allocator_never_returns_a_placement_worse_than_even_striping() {
    let n = 400;
    let p = Params::paper();
    let ds = DatasetBuilder::new(n, 0xA111).build().unwrap();
    for theta in [0.0, 0.4, 0.8, 1.2] {
        let weights = zipf_weights(n, theta);
        for k in [2u32, 4, 8] {
            for sw in [0u64, 256, 2048] {
                let best = model::best_striped(&p, &weights, k, sw, model::flat);
                let even = model::even_striped(&p, &weights, k, sw, model::flat);
                assert!(
                    best.predicted.access <= even.predicted.access + 1e-9,
                    "θ={theta} K={k} sw={sw}: DP predicted {:.0}, worse than even {:.0}",
                    best.predicted.access,
                    even.predicted.access
                );
            }
        }
    }
    // Measured, where the gap is wide: at θ = 1.2, K = 4, the allocated
    // partition must beat even striping when both groups actually air.
    let weights = zipf_weights(n, 1.2);
    let config = GroupConfig::new(4, 256).unwrap();
    let best = model::best_striped(&p, &weights, 4, 256, model::flat);
    let even = model::even_striped(&p, &weights, 4, 256, model::flat);
    let best_sys = StripedScheme::with_partition(FlatScheme, config, best.sizes.clone())
        .build(&ds, &p)
        .unwrap();
    let even_sys = StripedScheme::with_partition(FlatScheme, config, even.sizes.clone())
        .build(&ds, &p)
        .unwrap();
    let best_at = weighted_group_at(&best_sys, &ds, &weights, 0xBE57);
    let even_at = weighted_group_at(&even_sys, &ds, &weights, 0xE7E7);
    assert!(
        best_at < even_at,
        "θ=1.2 K=4: measured allocator At {best_at:.0} must beat even {even_at:.0}"
    );
}

#[test]
fn signature_matches_model() {
    let ds = DatasetBuilder::new(NR, 5).build().unwrap();
    let p = Params::paper();
    let sys = SimpleSignatureScheme::new().build(&ds, &p).unwrap();
    let r = report_for(&sys, &ds);
    // datagen records: 4 attributes with the key as attribute 0 → 4
    // distinct superimposed strings.
    let m = model::signature(&p, &SigParams::default(), 4, NR);
    assert_close("signature access", r.mean_access(), m.access, 0.05);
    assert_close("signature tuning", r.mean_tuning(), m.tuning, 0.15);
}
