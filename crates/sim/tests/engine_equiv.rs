//! Equivalence suite for the slab + bucket-aligned-wakeup engine: for any
//! request batch — simultaneous arrivals, unsorted order, absent keys —
//! the slab engine must produce exactly the outcomes of the naive
//! per-request reference heap it replaced, and its event accounting must
//! be deterministic run-to-run.

use bda_core::{ChannelModel, DynSystem, Key, Params, RetryPolicy, Scheme, Ticks};
use bda_datagen::DatasetBuilder;
use bda_hash::HashScheme;
use bda_sim::engine::reference::run_requests_reference_channel;
use bda_sim::Engine;
use proptest::prelude::*;

fn systems(ds: &bda_core::Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    vec![
        Box::new(bda_core::FlatScheme.build(ds, p).unwrap()),
        Box::new(HashScheme::new().build(ds, p).unwrap()),
        Box::new(bda_btree::DistributedScheme::new().build(ds, p).unwrap()),
        Box::new(
            bda_signature::IntegratedSignatureScheme::new(5)
                .build(ds, p)
                .unwrap(),
        ),
    ]
}

/// A request batch exercising the engine's scheduling edge cases:
/// arrivals are drawn from a tiny time range (collisions guaranteed),
/// returned unsorted, and keys mix present and absent.
fn arb_batch() -> impl Strategy<Value = (Vec<(Ticks, Key)>, u64)> {
    (
        proptest::collection::vec(
            (0u64..5_000, any::<proptest::sample::Index>(), any::<bool>()),
            1..120,
        ),
        any::<u64>(),
    )
        .prop_map(|(raw, seed)| {
            let (ds, pool) = DatasetBuilder::new(40, seed)
                .build_with_absent_pool(8)
                .expect("dataset");
            let keys: Vec<Key> = ds.keys().collect();
            let reqs = raw
                .into_iter()
                .map(|(t, idx, present)| {
                    let key = if present {
                        keys[idx.index(keys.len())]
                    } else {
                        pool[idx.index(pool.len())]
                    };
                    (t, key)
                })
                .collect();
            (reqs, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Slab/batched scheduling is outcome-identical to the naive
    /// reference heap, request by request, for every scheme family.
    #[test]
    fn slab_engine_is_outcome_identical_to_reference((requests, seed) in arb_batch()) {
        let (ds, _) = DatasetBuilder::new(40, seed)
            .build_with_absent_pool(8)
            .expect("dataset");
        let params = Params::paper();
        for sys in systems(&ds, &params) {
            let slab = Engine::new(sys.as_ref()).run_batch(&requests);
            let naive = run_requests_reference_channel(
                sys.as_ref(),
                &requests,
                ChannelModel::NONE,
                RetryPolicy::UNBOUNDED,
            );
            prop_assert_eq!(slab.len(), naive.len());
            for (a, b) in slab.iter().zip(&naive) {
                prop_assert_eq!(a.arrival, b.arrival, "{}", sys.scheme_name());
                prop_assert_eq!(a.key, b.key, "{}", sys.scheme_name());
                prop_assert_eq!(&a.outcome, &b.outcome, "{}", sys.scheme_name());
            }
        }
    }

    /// Reusing one engine (recycled slots, pooled scheduler vectors) never
    /// changes outcomes relative to a fresh engine per batch.
    #[test]
    fn recycled_engine_matches_fresh_engine((requests, seed) in arb_batch()) {
        let (ds, _) = DatasetBuilder::new(40, seed)
            .build_with_absent_pool(8)
            .expect("dataset");
        let params = Params::paper();
        for sys in systems(&ds, &params) {
            let mut reused = Engine::new(sys.as_ref());
            reused.run_batch(&requests); // warm: slots + pools now recycled
            let warm = reused.run_batch(&requests);
            let fresh = Engine::new(sys.as_ref()).run_batch(&requests);
            prop_assert_eq!(warm, fresh, "{}", sys.scheme_name());
        }
    }
}

/// Event accounting is deterministic: two engines fed the same requests
/// report identical event, batch and completion counts. Pins the engine's
/// run-to-run reproducibility, which the adaptive simulator's accuracy
/// stopping rule relies on.
#[test]
fn event_counts_are_deterministic_across_runs() {
    let (ds, pool) = DatasetBuilder::new(60, 17)
        .build_with_absent_pool(6)
        .unwrap();
    let params = Params::paper();
    let keys: Vec<Key> = ds.keys().collect();
    // Unsorted arrivals with duplicates, present and absent keys.
    let requests: Vec<(Ticks, Key)> = (0..500)
        .map(|i| {
            let t = (i * 7919) % 4096;
            let key = if i % 5 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 31) % keys.len()]
            };
            (t as Ticks, key)
        })
        .collect();
    for sys in systems(&ds, &params) {
        let mut a = Engine::new(sys.as_ref());
        let mut b = Engine::new(sys.as_ref());
        let ra = a.run_batch(&requests);
        let rb = b.run_batch(&requests);
        assert_eq!(ra, rb, "{} outcomes drifted", sys.scheme_name());
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.events, sb.events, "{} event count", sys.scheme_name());
        assert_eq!(
            sa.wake_batches,
            sb.wake_batches,
            "{} batch count",
            sys.scheme_name()
        );
        assert_eq!(sa.completed, sb.completed);
        assert_eq!(sa.peak_in_flight, sb.peak_in_flight);
    }
}
