//! A warmed engine allocates nothing per request: a second identical
//! batch makes exactly one allocation of its own, the vector of its
//! results, on lossless air and on `churn-lossy`'s burst and outage air
//! alike, over frozen and over churning programs, on one channel and on
//! three broadcast disks. Slots are re-armed in place, the wake-up
//! scheduler keeps the capacity of its map and heap from one batch to the
//! next, and an engine makes its memo of what its clients hear once, on
//! its first batch over lossy air.
//!
//! The walks allocate nothing either, a signature query's signature
//! included, counted through one stand-alone slot. A fresh slot's first
//! run of the requests allocates nothing, but for the scans on lossy air
//! or on disks (whose cycles repeat hot records, out of record order): a
//! scan whose coverage gains a gap moves it into a bitmap, and each
//! query's machine takes over the bitmap of the one before it in its slot
//! (and of the machine a version skew replaced), so the first run
//! allocates a bitmap a few times at most, growing it to the largest
//! program met, and a second run allocates nothing. The generic disk
//! router hands each query's inner machine the last one's in the same
//! way; over several disks its inner scans allocate nothing even on a
//! first run, though it starts a fresh one at every re-route: a corrupted
//! read re-routes, so an inner scan reads its minor cycle in order and
//! gains no gap.
//!
//! The counting allocator below counts allocations for the whole test
//! binary, so this file holds one test and prints nothing between its
//! measurements.

use std::alloc::{self, GlobalAlloc, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use bda_core::{
    BurstModel, ChannelModel, DiskConfig, DiskScheme, DynSystem, FlatScheme, Key, OutageSchedule,
    Params, RetryPolicy, Scheme, Ticks, WalkStep,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, Layout, SchemeKind, UpdateSpec};

/// The system allocator, counting allocations.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator and returns its result, so `Counting` keeps `System`'s
// contract; the only addition is a relaxed counter that publishes no data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: alloc::Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: alloc::Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A program under test.
struct Program {
    name: &'static str,
    /// Whether its walks keep a coverage that can gain a gap (the scans').
    gaps: bool,
    /// Whether it is laid out over broadcast disks.
    disks: bool,
    churning: bool,
    sys: Box<dyn DynSystem>,
}

/// Allocations made by `requests` run one after another through one
/// fresh stand-alone slot, with fast-forward on as in the engine: what
/// the walks themselves allocate on the first run, and on a second run
/// through the same slot.
fn walk_allocations(
    sys: &dyn DynSystem,
    requests: &[(Ticks, Key)],
    (channel, policy): (ChannelModel, RetryPolicy),
) -> [usize; 2] {
    let mut slot = sys.make_slot_channel(channel, policy);
    slot.set_fast_forward(true);
    [(); 2].map(|()| {
        let before = ALLOCS.load(Relaxed);
        for &(t, key) in requests {
            slot.start(key, t);
            while !matches!(slot.step(), WalkStep::Done(_)) {}
        }
        ALLOCS.load(Relaxed) - before
    })
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
    // `churn-lossy`'s churn: 10 % of the records change every cycle for
    // longer than the arrivals last.
    let churns = [
        None,
        Some(UpdateSpec {
            rate: 0.10,
            seed: 0xC4A,
            horizon_cycles: 16,
        }),
    ];
    // Every kind on one channel, and on three broadcast disks where it has
    // them, frozen and churning; and a flat scan behind the generic disk
    // router, on one disk, where the router hands every read to one inner
    // scan per query, and on three, where its inner scans gain no gap.
    let layouts = [Layout::Single, Layout::Disks(DiskConfig::new(3))];
    let mut programs = Vec::new();
    for kind in SchemeKind::ALL {
        let gaps = matches!(
            kind,
            SchemeKind::Flat
                | SchemeKind::Signature
                | SchemeKind::IntegratedSignature
                | SchemeKind::MultiLevelSignature
        );
        for layout in &layouts {
            for churn in churns {
                if let Some(sys) = kind.build_on(&ds, &params, layout, churn) {
                    programs.push(Program {
                        name: kind.name(),
                        gaps,
                        disks: matches!(layout, Layout::Disks(_)),
                        churning: churn.is_some(),
                        sys: sys.unwrap(),
                    });
                }
            }
        }
    }
    for disks in [1, 3] {
        let routed = DiskScheme::new(FlatScheme, DiskConfig::new(disks)).build(&ds, &params);
        programs.push(Program {
            name: "routed flat",
            gaps: disks == 1,
            disks: disks > 1,
            churning: false,
            sys: Box::new(routed.unwrap()),
        });
    }
    // Sized up front: the measurements must not allocate between batches.
    let mut counts = Vec::with_capacity(programs.len() * airs.len());
    let mut ok = true;
    for Program {
        name,
        gaps,
        disks,
        churning,
        sys,
    } in &programs
    {
        // Arrivals over eight cycles: clients overlap and wake at many
        // distinct instants.
        let span = 8 * sys.cycle_len();
        let requests: Vec<(u64, Key)> = (0..4_000u64)
            .map(|i| {
                let t = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                (t % span, keys[(i as usize * 37) % keys.len()])
            })
            .collect();
        for &(channel, policy) in &airs {
            let lossless = channel.is_lossless();
            let [first, warmed] = walk_allocations(sys.as_ref(), &requests, (channel, policy));
            let mut engine = Engine::with_channel(sys.as_ref(), channel, policy);
            drop(engine.run_batch(&requests));
            let before = ALLOCS.load(Relaxed);
            let out = engine.run_batch(&requests);
            let allocs = ALLOCS.load(Relaxed) - before;
            // A first run allocates nothing but a scan's coverage bitmap,
            // on lossy air or on disks: some query's coverage gains a gap,
            // and the bitmap is made once and grown at most three times to
            // the largest program met.
            let first_as_expected = if *gaps && (*disks || !lossless) {
                (1..=4).contains(&first)
            } else {
                first == 0
            };
            counts.push((*name, *disks, *churning, lossless, allocs, first, warmed));
            ok &= allocs == 1 && first_as_expected && warmed == 0;
            assert_eq!(out.len(), requests.len());
        }
    }
    assert!(
        ok,
        "(scheme, disks, churning, lossless air, a warmed engine's allocations, \
         the walks' own on a first and on a second run): {counts:?}"
    );
}
