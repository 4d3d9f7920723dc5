//! Cross-crate correctness: every broadcast key must be retrievable by
//! every access method from any tune-in instant, with sane metrics.

use bda::prelude::*;

fn dataset() -> Dataset {
    DatasetBuilder::new(400, 0xF00D).build().unwrap()
}

fn systems(ds: &Dataset, params: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, params).unwrap()).into()
}

#[test]
fn every_key_every_scheme_many_alignments() {
    let ds = dataset();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let cycle = sys.cycle_len();
        for (i, r) in ds.records().iter().enumerate() {
            // A rotating set of tune-in times covering all cycle phases.
            for s in 0..4u64 {
                let t = (i as u64 * 2_654_435_761 + s * cycle / 4) % (3 * cycle);
                let out = sys.probe(r.key, t);
                assert!(
                    out.found,
                    "{}: key {} not found from t={t}",
                    sys.scheme_name(),
                    r.key
                );
                assert!(!out.aborted, "{}", sys.scheme_name());
                assert!(out.tuning <= out.access, "{}", sys.scheme_name());
                assert!(
                    out.access <= 3 * cycle,
                    "{}: access {} > 3 cycles",
                    sys.scheme_name(),
                    out.access
                );
                assert!(out.probes >= 1);
            }
        }
    }
}

#[test]
fn outcome_is_phase_invariant() {
    // Shifting the tune-in by whole cycles must not change anything.
    let ds = dataset();
    let params = Params::paper();
    for sys in systems(&ds, &params) {
        let cycle = sys.cycle_len();
        let key = ds.record(123).key;
        for t in [0u64, 17, cycle / 2] {
            let a = sys.probe(key, t);
            let b = sys.probe(key, t + cycle);
            let c = sys.probe(key, t + 1000 * cycle);
            assert_eq!(a, b, "{}", sys.scheme_name());
            assert_eq!(a, c, "{}", sys.scheme_name());
        }
    }
}

#[test]
fn tiny_datasets_work_everywhere() {
    for n in [1usize, 2, 3, 5, 8] {
        let ds = DatasetBuilder::new(n, 7).build().unwrap();
        let params = Params::paper();
        for sys in systems(&ds, &params) {
            for r in ds.records() {
                let out = sys.probe(r.key, 12_345);
                assert!(out.found, "{} n={n}", sys.scheme_name());
                assert!(!out.aborted);
            }
        }
    }
}

#[test]
fn fig6_parameter_range_is_supported() {
    // Every record/key ratio of the Fig. 6 sweep must build and answer.
    let ds = DatasetBuilder::new(150, 9).build().unwrap();
    for ratio in [5u32, 10, 20, 25, 50, 100] {
        let params = Params::with_record_key_ratio(ratio).unwrap();
        for sys in systems(&ds, &params) {
            let key = ds.record(77).key;
            let out = sys.probe(key, 999_999);
            assert!(out.found, "{} ratio={ratio}", sys.scheme_name());
            assert!(!out.aborted);
        }
    }
}
