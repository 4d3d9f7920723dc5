//! A warmed engine allocates nothing per request: a second identical
//! batch makes exactly one allocation of its own, the vector of its
//! results, on lossless air and on `churn-lossy`'s burst and outage air
//! alike. Slots are re-armed in place, the wake-up scheduler keeps the
//! capacity of its map and heap from one batch to the next, and an engine
//! makes its memo of what its clients hear once, on its first batch over
//! lossy air. The walks allocate nothing on lossless air, a signature
//! query's signature included; on lossy air a scan whose coverage gains a
//! gap moves it into a bitmap, at most one per query. The test counts what
//! the same walks allocate through one stand-alone slot and expects the
//! engine to add exactly its result vector.
//!
//! The counting allocator below counts allocations for the whole test
//! binary, so this file holds one test and prints nothing between its
//! measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bda_core::{
    BurstModel, ChannelModel, DynSystem, Key, OutageSchedule, Params, RetryPolicy, Ticks, WalkStep,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, SchemeKind};

/// The system allocator, counting allocations.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result, so `Counting` keeps `System`'s
// contract; the only addition is a relaxed counter that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `requests` run one after another through one
/// stand-alone slot, with fast-forward on as in the engine: what the walks
/// themselves allocate.
fn walk_allocations(
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    (channel, policy): (ChannelModel, RetryPolicy),
) -> usize {
    let mut slot = sys.make_slot_channel(channel, policy);
    slot.set_fast_forward(true);
    let before = ALLOCS.load(Relaxed);
    for &(t, key) in requests {
        slot.start(key, t);
        while !matches!(slot.step(), WalkStep::Done(_)) {}
    }
    ALLOCS.load(Relaxed) - before
}

#[test]
fn a_warmed_engine_allocates_only_the_result_vector() {
    let (ds, _) = DatasetBuilder::new(500, 0xA110C)
        .build_with_absent_pool(1)
        .unwrap();
    let keys: Vec<Key> = ds.keys().collect();
    let params = Params::paper();
    // Lossless air, and `churn-lossy`'s: a Gilbert–Elliott chain with
    // outage windows, recovered by bounded, capped and jittered back-off.
    let airs = [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
                .with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
            RetryPolicy::bounded(24)
                .with_backoff_cap(8)
                .with_jitter(0x117),
        ),
    ];
    // Sized up front: the measurements must not allocate between batches.
    let mut counts = Vec::with_capacity(airs.len() * SchemeKind::ALL.len());
    let mut ok = true;
    for (kind, &(channel, policy)) in SchemeKind::ALL
        .into_iter()
        .flat_map(|k| airs.iter().map(move |a| (k, a)))
    {
        let sys = kind.build(&ds, &params).unwrap();
        // Arrivals over eight cycles: clients overlap and wake at many
        // distinct instants.
        let span = 8 * sys.cycle_len();
        let requests: Vec<(u64, Key)> = (0..4_000u64)
            .map(|i| {
                let t = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                (t % span, keys[(i as usize * 37) % keys.len()])
            })
            .collect();
        let scans = matches!(
            kind,
            SchemeKind::Flat
                | SchemeKind::Signature
                | SchemeKind::IntegratedSignature
                | SchemeKind::MultiLevelSignature
        );
        let lossless = channel.is_lossless();
        let walks = walk_allocations(sys.as_ref(), &requests, (channel, policy));
        let mut engine = Engine::with_channel(sys.as_ref(), channel, policy);
        drop(engine.run_batch(&requests));
        let before = ALLOCS.load(Relaxed);
        let out = engine.run_batch(&requests);
        let allocs = ALLOCS.load(Relaxed) - before;
        // Nothing, but on lossy air a scan's coverage bitmap: some query's
        // coverage gains a gap, and none allocates twice.
        let walks_as_expected = if scans && !lossless {
            walks > 0 && walks <= requests.len()
        } else {
            walks == 0
        };
        counts.push((kind.name(), lossless, allocs, walks));
        ok &= allocs == 1 + walks && walks_as_expected;
        assert_eq!(out.len(), requests.len());
    }
    assert!(
        ok,
        "(scheme, lossless air, a warmed engine's allocations, the walks' own): {counts:?}"
    );
}
