//! A reused engine's heap must not ratchet: the wake-up scheduler keeps
//! only the instants still pending, so a batch re-run through the same
//! engine leaves the live heap exactly where the first run left it.
//!
//! The counting allocator below tracks live bytes for the whole test
//! binary, so this file holds one test and prints nothing between its
//! measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bda_core::{BurstModel, ChannelModel, FlatScheme, Key, OutageSchedule, Params, RetryPolicy};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, UpdateSpec, VersionedServer};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result, so `Counting` keeps `System`'s
// contract; the only addition is a relaxed counter that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn reused_engine_heap_stays_flat_across_batches() {
    // The `churn-lossy` benchmark workload's shape at a smaller size: flat
    // broadcast over programs churning 10 % per cycle, behind a burst chain
    // with outage windows and jittered exponential back-off.
    let (ds, _) = DatasetBuilder::new(320, 0x3E30)
        .build_with_absent_pool(1)
        .unwrap();
    let churn = UpdateSpec {
        rate: 0.10,
        seed: 0x0DD,
        horizon_cycles: 16,
    };
    let server = VersionedServer::build(&FlatScheme, &ds, &Params::paper(), churn).unwrap();
    let channel = ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
        .with_outages(OutageSchedule::new(3_000, 300, 0x0A7));
    let policy = RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(0x117);
    let keys: Vec<Key> = ds.keys().collect();
    let span = 16 * bda_core::DynSystem::cycle_len(&server);
    let requests: Vec<(u64, Key)> = (0..4_000u64)
        .map(|i| {
            let t = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            (t % span, keys[(i as usize * 37) % keys.len()])
        })
        .collect();
    let mut engine = Engine::with_channel(&server, channel, policy);
    // Sized up front: the measurements must not allocate between batches.
    let mut live = Vec::with_capacity(8);
    for _ in 0..8 {
        drop(engine.run_batch(&requests));
        live.push(LIVE.load(Relaxed));
    }
    assert!(engine.stats().corrupt_reads > 0, "the air must corrupt");
    assert!(
        live.iter().all(|&bytes| bytes == live[0]),
        "live heap after each batch, in bytes: {live:?}"
    );
}
