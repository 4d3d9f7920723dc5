//! Merge correctness does not depend on how a batch is cut: an
//! *arbitrary* request→shard assignment, merged back to request order,
//! reproduces the unsharded result. (The sharded engine against the
//! single one at 1, 2, 3 and 7 shards is
//! `crates/bench/tests/engine_sharded_equiv.rs`, through the conformance
//! wall.)

use bda_core::{ChannelModel, ErrorModel, Key, Params, RetryPolicy, Ticks};
use bda_datagen::DatasetBuilder;
use bda_sim::{run_requests_partitioned, Engine, SchemeKind};
use proptest::prelude::*;

/// 15 % loss — the suite's error-prone channel.
const LOSS: f64 = 0.15;

/// The airs the suite runs over: lossless with unbounded retries, and
/// 15 % loss with a bounded (2-retry) policy so abandonment paths are
/// exercised too.
fn fault_modes() -> [(ChannelModel, RetryPolicy); 2] {
    [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(LOSS, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
    ]
}

/// An arbitrary batch plus an arbitrary request→shard assignment: the
/// strategy yields unsorted collision-heavy arrivals, present/absent key
/// mixes, and shard ids drawn from a range wider than typical core counts
/// (so empty shards and singleton shards both occur).
fn arb_partitioned_batch() -> impl Strategy<Value = (Vec<(Ticks, Key)>, Vec<usize>, u64)> {
    (
        proptest::collection::vec(
            (
                0u64..5_000,
                any::<proptest::sample::Index>(),
                any::<bool>(),
                0usize..12,
            ),
            1..100,
        ),
        any::<u64>(),
    )
        .prop_map(|(raw, seed)| {
            let (ds, pool) = DatasetBuilder::new(40, seed)
                .build_with_absent_pool(8)
                .expect("dataset");
            let keys: Vec<Key> = ds.keys().collect();
            let mut reqs = Vec::with_capacity(raw.len());
            let mut assignment = Vec::with_capacity(raw.len());
            for (t, idx, present, shard) in raw {
                let key = if present {
                    keys[idx.index(keys.len())]
                } else {
                    pool[idx.index(pool.len())]
                };
                reqs.push((t, key));
                assignment.push(shard);
            }
            (reqs, assignment, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any partition of a request batch, merged back to request order,
    /// equals the unsharded run — lossless and under 15 % loss with
    /// bounded retries.
    #[test]
    fn arbitrary_partition_merges_to_unsharded_result(
        (requests, assignment, seed) in arb_partitioned_batch()
    ) {
        let (ds, _) = DatasetBuilder::new(40, seed)
            .build_with_absent_pool(8)
            .expect("dataset");
        let params = Params::paper();
        let systems =
            [SchemeKind::Hashing, SchemeKind::Distributed].map(|k| k.build(&ds, &params).unwrap());
        for sys in &systems {
            for (air, policy) in fault_modes() {
                let unsharded =
                    Engine::with_channel(sys.as_ref(), air, policy).run_batch(&requests);
                let merged = run_requests_partitioned(
                    sys.as_ref(),
                    &requests,
                    &assignment,
                    air,
                    policy,
                );
                prop_assert_eq!(
                    &unsharded,
                    &merged,
                    "{} (loss={})",
                    sys.scheme_name(),
                    air.worst_loss()
                );
            }
        }
    }
}
