//! A warmed engine allocates nothing per request: a second identical
//! batch makes exactly one allocation, the vector of its results. Slots
//! are re-armed in place, and the wake-up scheduler keeps the capacity of
//! its map and heap from one batch to the next. The three signature
//! schemes add one allocation per request of their own: each query's
//! machine holds the query's signature on the heap.
//!
//! The counting allocator below counts allocations for the whole test
//! binary, so this file holds one test and prints nothing between its
//! measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bda_core::{Key, Params};
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

#[test]
fn a_warmed_engine_allocates_only_the_result_vector() {
    let (ds, _) = DatasetBuilder::new(500, 0xA110C)
        .build_with_absent_pool(1)
        .unwrap();
    let keys: Vec<Key> = ds.keys().collect();
    let params = Params::paper();
    // Sized up front: the measurements must not allocate between batches.
    let mut counts = Vec::with_capacity(SchemeKind::ALL.len());
    for kind in SchemeKind::ALL {
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
        let signatures = matches!(
            kind,
            SchemeKind::Signature
                | SchemeKind::IntegratedSignature
                | SchemeKind::MultiLevelSignature
        );
        let mut engine = Engine::new(sys.as_ref());
        drop(engine.run_batch(&requests));
        let before = ALLOCS.load(Relaxed);
        let out = engine.run_batch(&requests);
        let allocs = ALLOCS.load(Relaxed) - before;
        let expected = 1 + usize::from(signatures) * requests.len();
        counts.push((kind.name(), allocs, expected));
        assert_eq!(out.len(), requests.len());
    }
    assert!(
        counts
            .iter()
            .all(|&(_, allocs, expected)| allocs == expected),
        "(scheme, allocations, expected) in a warmed engine's second batch: {counts:?}"
    );
}
