//! Availability-aware models (extension).
//!
//! The paper derives closed forms only for the 100 %-availability setting
//! of Fig. 4; Fig. 5's availability sweep is presented purely empirically.
//! These models extend §2 with the *data availability* parameter
//! `a ∈ \[0, 1\]`: each scheme's expected metric is the mixture of its
//! success cost (weight `a`) and its failure-detection cost (weight
//! `1 − a`):
//!
//! * **flat** — a failed search scans the whole cycle instead of half;
//! * **signature** — a failed search examines all `Nr` signatures instead
//!   of half, and every spurious match is a false drop;
//! * **B+-tree schemes** — failure is detected inside the index segment,
//!   so the broadcast wait disappears entirely;
//! * **hashing** — failure costs the same locate path, minus the download,
//!   plus reading the full (rather than half) collision chain.

use bda_core::Params;
use bda_signature::SigParams;

use crate::btree::tree_shape;
use crate::Model;

fn mix(success: Model, failure: Model, availability: f64) -> Model {
    let a = availability.clamp(0.0, 1.0);
    Model {
        access: a * success.access + (1.0 - a) * failure.access,
        tuning: a * success.tuning + (1.0 - a) * failure.tuning,
    }
}

/// Flat broadcast at availability `a`.
pub fn flat(params: &Params, nr: usize, availability: f64) -> Model {
    let dt = f64::from(params.data_bucket_size());
    let n = nr as f64;
    let success = crate::flat::flat(params, nr);
    // Failure: scan one complete cycle after the initial wait.
    let fail_at = (0.5 + n) * dt;
    mix(
        success,
        Model {
            access: fail_at,
            tuning: fail_at,
        },
        availability,
    )
}

/// Simple signature indexing at availability `a` (`distinct_strings` as in
/// [`crate::signature()`]).
pub fn signature(
    params: &Params,
    sig: &SigParams,
    distinct_strings: usize,
    nr: usize,
    availability: f64,
) -> Model {
    let dt = f64::from(params.data_bucket_size());
    let it = f64::from(params.header_size + sig.sig_bytes);
    let n = nr as f64;
    let p_fd = crate::signature::false_drop_probability(sig, distinct_strings);
    let success = crate::signature::signature(params, sig, distinct_strings, nr);
    // Failure: every signature examined, every spurious match downloaded.
    let failure = Model {
        access: 0.5 * (it + dt) + n * (it + dt),
        tuning: 0.5 * (it + dt) + n * it + p_fd * n * dt,
    };
    mix(success, failure, availability)
}

/// Distributed indexing at availability `a`.
pub fn distributed(params: &Params, nr: usize, r: Option<usize>, availability: f64) -> Model {
    let dt = f64::from(params.data_bucket_size());
    let fanout = params.index_entries_per_bucket();
    let (k, _) = tree_shape(fanout, nr);
    let success = crate::btree::distributed(params, nr, r);
    // Failure: absence is only confirmed at the leaf index bucket of the
    // key's range, and the non-replicated part of the tree is broadcast
    // once per cycle — so the expected wait matches the success path's
    // broadcast wait, minus the final download. Tuning drops by exactly
    // that download. (This is why Fig. 5(a)'s distributed curve is flat in
    // availability while its *tuning* stays index-only.)
    let failure = Model {
        access: (success.access - dt).max(0.0),
        tuning: (k as f64 + 2.5) * dt,
    };
    mix(success, failure, availability)
}

/// `(1,m)` indexing at availability `a`.
pub fn one_m(params: &Params, nr: usize, m: Option<usize>, availability: f64) -> Model {
    let dt = f64::from(params.data_bucket_size());
    let fanout = params.index_entries_per_bucket();
    let (k, _) = tree_shape(fanout, nr);
    let success = crate::btree::one_m(params, nr, m);
    // Failure: every index segment holds the whole tree, so absence is
    // confirmed within the first segment reached — the broadcast wait
    // (½·cycle) disappears entirely. Success access is
    // 1.5·Dt + C/(2m) + C/2; strip the ½·C term.
    let m_val = {
        let (_, index_buckets) = tree_shape(fanout, nr);
        m.unwrap_or_else(|| bda_btree::optimal::optimal_m(nr, index_buckets))
            .clamp(1, nr) as f64
    };
    let cycle = (success.access - 1.5 * dt) / (0.5 + 0.5 / m_val);
    let failure = Model {
        access: success.access - 0.5 * cycle,
        tuning: (k as f64 + 1.5) * dt,
    };
    mix(success, failure, availability)
}

/// Simple hashing at availability `a` (layout statistics as in
/// [`crate::hash()`]).
pub fn hash(params: &Params, nr: usize, na: u64, nc: usize, availability: f64) -> Model {
    let dt = f64::from(params.data_bucket_size());
    let success = crate::hash::hash(params, nr, na, nc);
    // Failure: identical locate + shift path. A *present* key's chain scan
    // reads Ct = Nc/Nr colliding buckets plus the download; an *absent*
    // key's slot has a size-unbiased chain of expected length Nr/Na, read
    // in full plus the terminating mismatch bucket. Net difference:
    // (Nr/Na + 1) − (Ct + 1).
    let ct = nc as f64 / nr as f64;
    let chain_e = nr as f64 / na as f64;
    let delta = (chain_e - ct) * dt;
    let failure = Model {
        access: success.access + delta,
        tuning: success.tuning + delta,
    };
    mix(success, failure, availability)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{DynSystem, Scheme};
    use bda_datagen::{DatasetBuilder, Popularity, QueryWorkload};
    use bda_sim::{SimConfig, Simulator};

    const NR: usize = 1_500;

    fn simulate(sys: &dyn DynSystem, a: f64) -> (f64, f64) {
        let (ds, pool) = DatasetBuilder::new(NR, 77)
            .build_with_absent_pool(NR)
            .unwrap();
        let _ = &ds;
        let workload = QueryWorkload::new(&ds, pool, a, Popularity::Uniform, 5);
        let mut cfg = SimConfig::quick();
        cfg.accuracy = 0.03;
        cfg.driver = bda_sim::Driver::Walker;
        cfg.max_rounds = 400;
        let r = Simulator::new(sys, workload, cfg).run();
        assert_eq!(r.aborted, 0);
        (r.mean_access(), r.mean_tuning())
    }

    fn dataset() -> bda_core::Dataset {
        DatasetBuilder::new(NR, 77).build().unwrap()
    }

    fn check(label: &str, measured: (f64, f64), model: Model, tol_at: f64, tol_tt: f64) {
        let (at, tt) = measured;
        assert!(
            (at - model.access).abs() / model.access < tol_at,
            "{label} access: measured {at:.0} model {:.0}",
            model.access
        );
        assert!(
            (tt - model.tuning).abs() / model.tuning < tol_tt,
            "{label} tuning: measured {tt:.0} model {:.0}",
            model.tuning
        );
    }

    #[test]
    fn flat_tracks_availability() {
        let p = Params::paper();
        let sys = bda_core::FlatScheme.build(&dataset(), &p).unwrap();
        for a in [0.0, 0.5, 1.0] {
            check(
                &format!("flat a={a}"),
                simulate(&sys, a),
                flat(&p, NR, a),
                0.06,
                0.06,
            );
        }
    }

    #[test]
    fn signature_tracks_availability() {
        let p = Params::paper();
        let sigp = SigParams::default();
        let sys = bda_signature::SimpleSignatureScheme::with_params(sigp)
            .build(&dataset(), &p)
            .unwrap();
        for a in [0.0, 0.5, 1.0] {
            check(
                &format!("signature a={a}"),
                simulate(&sys, a),
                signature(&p, &sigp, 4, NR, a),
                0.06,
                0.15,
            );
        }
    }

    #[test]
    fn distributed_tracks_availability() {
        let p = Params::paper();
        let sys = bda_btree::DistributedScheme::new()
            .build(&dataset(), &p)
            .unwrap();
        for a in [0.0, 0.5, 1.0] {
            check(
                &format!("distributed a={a}"),
                simulate(&sys, a),
                distributed(&p, NR, None, a),
                0.20,
                0.25,
            );
        }
    }

    #[test]
    fn hashing_tracks_availability() {
        let p = Params::paper();
        let sys = bda_hash::HashScheme::new().build(&dataset(), &p).unwrap();
        let model = |a| hash(&p, NR, sys.na(), sys.num_collisions(), a);
        for a in [0.0, 0.5, 1.0] {
            check(
                &format!("hashing a={a}"),
                simulate(&sys, a),
                model(a),
                0.10,
                0.15,
            );
        }
    }

    #[test]
    fn qualitative_shapes_match_fig5() {
        let p = Params::paper();
        // Flat and signature access fall with availability; tree access
        // failure path is far below its success path.
        assert!(flat(&p, NR, 0.0).access > flat(&p, NR, 1.0).access);
        let s0 = signature(&p, &SigParams::default(), 4, NR, 0.0);
        let s1 = signature(&p, &SigParams::default(), 4, NR, 1.0);
        assert!(s0.access > s1.access);
        assert!(s0.tuning > s1.tuning);
        // Distributed access is flat in availability (absence is only
        // confirmed at the once-per-cycle leaf bucket); its tuning drops
        // by the skipped download. (1,m) access *does* collapse at low
        // availability — the whole tree precedes every segment.
        let d0 = distributed(&p, NR, None, 0.0);
        let d1 = distributed(&p, NR, None, 1.0);
        assert!((d0.access - d1.access).abs() / d1.access < 0.01);
        assert!(d0.tuning < d1.tuning);
        let m0 = one_m(&p, NR, None, 0.0);
        let m1 = one_m(&p, NR, None, 1.0);
        assert!(m0.access < m1.access / 2.0);
        // Hashing barely moves.
        let h0 = hash(&p, NR, NR as u64, NR / 3, 0.0);
        let h1 = hash(&p, NR, NR as u64, NR / 3, 1.0);
        assert!((h0.access - h1.access).abs() / h1.access < 0.01);
    }
}
