//! The slab engine against the reference oracle and against itself over
//! random colliding batches: for any request batch — simultaneous
//! arrivals, unsorted order, absent keys — the slab engine produces
//! exactly the outcomes of the naive per-request reference heap it
//! replaced, and a reused engine those of a fresh one. The conformance
//! wall (`bda_bench::conformance`) runs fixed batches through every
//! driver (`crates/bench/tests`); these properties draw the batches at
//! random.

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
