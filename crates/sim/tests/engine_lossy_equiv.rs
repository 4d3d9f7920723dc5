//! Retry-policy properties on lossy air (driver agreement under i.i.d.
//! loss is `crates/bench/tests/engine_lossy_equiv.rs`, through the
//! conformance wall):
//!
//! * under 25 % loss a two-retry budget gives up on some query of every
//!   scheme, truthfully and identically on the slab engine, the reference
//!   oracle and the direct walker;
//! * lossless air is free under any policy: the policy is consulted only
//!   at a corrupted read, so with `ChannelModel::NONE` the faulty entry
//!   points are bit-identical to the lossless ones.

use bda_core::{ChannelModel, DynSystem, ErrorModel, Key, Params, RetryPolicy, Ticks};
use bda_datagen::DatasetBuilder;
use bda_sim::engine::reference::run_requests_reference_channel;
use bda_sim::{Engine, SchemeKind};

/// Every scheme family in the repo, including the composite hybrid.
fn all_systems(ds: &bda_core::Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, p).unwrap()).into()
}

/// A deterministic request mix: unsorted arrivals with collisions, present
/// and absent keys interleaved.
fn request_mix(ds: &bda_core::Dataset, pool: &[Key], n: usize) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = ((i * 6151) % 9000) as Ticks;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t, key)
        })
        .collect()
}

/// Same differential property with a *bounded* retry policy: abandonment
/// decisions (which depend on exact corrupt-read counts and elapsed time)
/// must also be identical across all three executions.
#[test]
fn bounded_retry_abandonment_is_identical_across_drivers() {
    let (ds, pool) = DatasetBuilder::new(60, 0x10EB)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 60);
    let air = ChannelModel::from(ErrorModel::new(0.25, 7));
    let policy = RetryPolicy::bounded(2);
    for sys in all_systems(&ds, &params) {
        let slab = Engine::with_channel(sys.as_ref(), air, policy).run_batch(&requests);
        let naive = run_requests_reference_channel(sys.as_ref(), &requests, air, policy);
        let mut abandoned = 0u64;
        for (a, b) in slab.iter().zip(&naive) {
            assert_eq!(&a.outcome, &b.outcome, "{}", sys.scheme_name());
            let direct = sys.probe_with_channel(a.key, a.arrival, air, policy);
            assert_eq!(a.outcome, direct, "{}", sys.scheme_name());
            // Truthfulness: a wrong answer is never reported.
            assert!(!a.outcome.aborted, "{}", sys.scheme_name());
            if a.outcome.abandoned {
                assert!(!a.outcome.found, "{}", sys.scheme_name());
                abandoned += 1;
            }
        }
        // At 25 % loss with a 2-retry budget some queries must give up —
        // otherwise the policy was never consulted.
        assert!(
            abandoned > 0,
            "{} never abandoned at 25% loss / 2 retries",
            sys.scheme_name()
        );
    }
}

/// With `ErrorModel::NONE` the faulty entry points are bit-identical to
/// the lossless ones regardless of the retry policy — the policy is only
/// ever consulted at a corrupt read.
#[test]
fn lossless_faulty_paths_match_plain_paths() {
    let (ds, pool) = DatasetBuilder::new(40, 8)
        .build_with_absent_pool(6)
        .unwrap();
    let params = Params::paper();
    let requests = request_mix(&ds, &pool, 50);
    for policy in [
        RetryPolicy::UNBOUNDED,
        RetryPolicy::bounded(0),
        RetryPolicy::bounded(3).with_backoff(2).with_deadline(1_000),
    ] {
        for sys in all_systems(&ds, &params) {
            let plain = Engine::new(sys.as_ref()).run_batch(&requests);
            let faulty =
                Engine::with_channel(sys.as_ref(), ChannelModel::NONE, policy).run_batch(&requests);
            assert_eq!(plain, faulty, "{} with {policy:?}", sys.scheme_name());
        }
    }
}
