//! A lossless query's heap cost must not grow with the program: a clean
//! scan over a record-ordered cycle rules its records out as one run,
//! which takes no storage, and an index walk reads its nodes in place, so
//! a `probe` on any scheme allocates the same bytes per query at 1 000
//! records as at 10 000.
//!
//! The counting allocator below counts every byte the test binary
//! allocates, so this file holds one test and prints nothing between its
//! measurements.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bda_core::{Params, Ticks};
use bda_datagen::DatasetBuilder;
use bda_sim::SchemeKind;

/// The system allocator, counting allocated bytes.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result, so `Counting` keeps `System`'s
// contract; the only addition is a relaxed counter that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bytes each lossless `probe` allocates on `kind` built over
/// `records` records: eight present and eight absent keys, tuned in at
/// spread instants of the cycle.
fn bytes_per_query(kind: SchemeKind, records: usize) -> Vec<usize> {
    let (ds, absent) = DatasetBuilder::new(records, 0xA11C)
        .build_with_absent_pool(8)
        .unwrap();
    let sys = kind.build(&ds, &Params::paper()).unwrap();
    let keys: Vec<_> = ds
        .keys()
        .step_by(records / 8)
        .take(8)
        .chain(absent)
        .collect();
    let mut bytes = Vec::with_capacity(keys.len());
    for (i, &key) in keys.iter().enumerate() {
        let tune_in = (i as Ticks * 0x9E37_79B9) % sys.cycle_len();
        let before = ALLOCATED.load(Relaxed);
        let out = sys.probe(key, tune_in);
        bytes.push(ALLOCATED.load(Relaxed) - before);
        assert_eq!(out.found, i < 8, "{} key {i}", kind.name());
    }
    bytes
}

#[test]
fn lossless_probe_heap_is_independent_of_program_size() {
    for kind in SchemeKind::ALL {
        assert_eq!(
            bytes_per_query(kind, 1_000),
            bytes_per_query(kind, 10_000),
            "{}: bytes each query allocates at 1 000 and at 10 000 records",
            kind.name()
        );
    }
}
