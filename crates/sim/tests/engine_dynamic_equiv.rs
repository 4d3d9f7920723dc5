//! Two properties of the versioned-cycle subsystem (driver agreement
//! under churn is `crates/bench/tests/engine_dynamic_equiv.rs`, through
//! the conformance wall):
//!
//! 1. **Zero-update identity**: a [`VersionedServer`] built with update
//!    rate 0 collapses to a single epoch whose walks are *bit-identical*
//!    to the frozen channel, on every scheme, lossless and lossy alike.
//!    Dynamic mode costs nothing when nothing changes.
//! 2. **Truthfulness**: every verdict is checked against the dataset
//!    snapshots actually on the air during the walk, on one channel and
//!    on broadcast disks. A deleted key is never served from a stale
//!    program; a key present throughout is never missed; no walk aborts.

use bda_core::{
    ChannelModel, Dataset, DiskConfig, DynSystem, ErrorModel, Key, Params, RetryPolicy, Scheme,
    System, Ticks,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{Engine, SchemeKind, SchemeVisitor, UpdateSpec, VersionedServer};

/// Epoch geometry handed to the check closures: `(version, start)` in air
/// order, parallel to the dataset snapshots.
type EpochBounds = Vec<(u64, Ticks)>;
type ServerVisitor<'a> = dyn FnMut(&dyn DynSystem, &[(u64, Dataset)], &EpochBounds) + 'a;

/// Build a [`VersionedServer`] for every scheme family in the repo (on a
/// single channel, or for the kinds that have one, on `disks`) and hand
/// each one (type-erased) to `f` along with its per-epoch dataset
/// snapshots and epoch bounds.
fn with_all_servers(
    ds: &Dataset,
    p: &Params,
    disks: Option<DiskConfig>,
    spec: UpdateSpec,
    f: &mut ServerVisitor<'_>,
) {
    struct One<'a, 'f> {
        ds: &'a Dataset,
        p: &'a Params,
        spec: UpdateSpec,
        f: &'a mut ServerVisitor<'f>,
    }
    impl SchemeVisitor for One<'_, '_> {
        type Output = ();
        fn visit<Sch: Scheme>(self, scheme: Sch)
        where
            <Sch::System as System>::Machine: 'static,
        {
            let server = VersionedServer::build(&scheme, self.ds, self.p, self.spec).unwrap();
            let bounds: EpochBounds = server
                .timeline()
                .epochs()
                .iter()
                .map(|e| (e.version(), e.start))
                .collect();
            (self.f)(&server, server.datasets(), &bounds);
        }
    }
    for kind in SchemeKind::ALL {
        kind.visit(disks, One { ds, p, spec, f });
    }
}

/// Frozen builds of the same schemes, in the same order (the zero-update
/// comparison baseline).
fn all_frozen(ds: &Dataset, p: &Params) -> Vec<Box<dyn DynSystem>> {
    SchemeKind::ALL.map(|k| k.build(ds, p).unwrap()).into()
}

/// A deterministic request mix whose arrivals spread over `span` bytes of
/// air time (so walks land in every epoch), with present and absent keys
/// interleaved.
fn request_mix(ds: &Dataset, pool: &[Key], n: usize, span: Ticks) -> Vec<(Ticks, Key)> {
    let keys: Vec<Key> = ds.keys().collect();
    (0..n)
        .map(|i| {
            let t = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13;
            let key = if i % 6 == 0 {
                pool[i % pool.len()]
            } else {
                keys[(i * 37) % keys.len()]
            };
            (t % span.max(1), key)
        })
        .collect()
}

/// Air span covered by a timeline: last epoch start plus a few of the
/// initial program's cycles, so some arrivals land past the last update.
fn timeline_span(sys: &dyn DynSystem, bounds: &EpochBounds) -> Ticks {
    bounds.last().map_or(0, |&(_, s)| s) + 4 * sys.cycle_len()
}

/// The keystone: rate 0 produces one epoch and **bit-identical** outcomes
/// to the frozen channel on all eight schemes — lossless and at 10 % loss.
#[test]
fn zero_update_dynamic_mode_is_bit_identical_to_frozen() {
    let (ds, pool) = DatasetBuilder::new(60, 0x0D1)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let frozen = all_frozen(&ds, &params);
    let mut idx = 0usize;
    let spec = UpdateSpec {
        rate: 0.0,
        seed: 0xBEEF,
        horizon_cycles: 16,
    };
    with_all_servers(&ds, &params, None, spec, &mut |server, snaps, bounds| {
        let baseline = frozen[idx].as_ref();
        assert_eq!(
            bounds.len(),
            1,
            "{}: empty batches must coalesce",
            server.scheme_name()
        );
        assert_eq!(snaps.len(), 1);
        let requests = request_mix(&ds, &pool, 80, 16 * server.cycle_len());
        let dynamic = Engine::new(server).run_batch(&requests);
        let fixed = Engine::new(baseline).run_batch(&requests);
        assert_eq!(
            dynamic,
            fixed,
            "{}: lossless identity",
            server.scheme_name()
        );
        for r in &dynamic {
            assert_eq!(r.outcome.version_skews, 0);
            assert_eq!(r.outcome.stale_restarts, 0);
        }
        let air = ChannelModel::from(ErrorModel::new(0.10, 0xFA57));
        let policy = RetryPolicy::UNBOUNDED;
        let dynamic = Engine::with_channel(server, air, policy).run_batch(&requests);
        let fixed = Engine::with_channel(baseline, air, policy).run_batch(&requests);
        assert_eq!(dynamic, fixed, "{}: lossy identity", server.scheme_name());
        idx += 1;
    });
}

/// Truthfulness oracle, on one channel and on three broadcast disks:
/// every verdict matches some dataset actually on the air during the
/// walk. Deleted keys never resolve from stale programs; present-throughout
/// keys are never missed; nothing aborts; and at 20 % churn the stale
/// machinery demonstrably engages on every scheme.
#[test]
fn verdicts_are_truthful_against_epoch_datasets() {
    let (ds, pool) = DatasetBuilder::new(60, 0x5EED)
        .build_with_absent_pool(10)
        .unwrap();
    let params = Params::paper();
    let spec = UpdateSpec {
        rate: 0.20,
        seed: 0xABC7,
        horizon_cycles: 16,
    };
    let layouts = [None, Some(DiskConfig::new(3))];
    for (air, disks) in [ChannelModel::NONE, ErrorModel::new(0.10, 0x717).into()]
        .into_iter()
        .flat_map(|air| layouts.map(|disks| (air, disks)))
    {
        with_all_servers(&ds, &params, disks, spec, &mut |server, snaps, bounds| {
            assert!(
                bounds.len() > 1,
                "{}: 20% churn must produce multiple epochs",
                server.scheme_name()
            );
            let requests = request_mix(&ds, &pool, 90, timeline_span(server, bounds));
            let completed =
                Engine::with_channel(server, air, RetryPolicy::UNBOUNDED).run_batch(&requests);
            let mut skews = 0u64;
            for r in &completed {
                let o = &r.outcome;
                assert!(!o.aborted, "{}: abort", server.scheme_name());
                skews += u64::from(o.version_skews);
                if o.abandoned {
                    assert!(!o.found, "abandoned yet found");
                    continue;
                }
                // Epochs whose air interval overlaps [arrival, arrival+access].
                let end_of_walk = r.arrival + o.access;
                let overlapping: Vec<usize> = (0..bounds.len())
                    .filter(|&i| {
                        let start = bounds[i].1;
                        let next = bounds.get(i + 1).map_or(Ticks::MAX, |&(_, s)| s);
                        start <= end_of_walk && next > r.arrival
                    })
                    .collect();
                assert!(!overlapping.is_empty());
                let in_some = overlapping.iter().any(|&i| snaps[i].1.contains(r.key));
                let absent_some = overlapping.iter().any(|&i| !snaps[i].1.contains(r.key));
                if o.found {
                    assert!(
                        in_some,
                        "{}: found key {} never broadcast during its walk",
                        server.scheme_name(),
                        r.key
                    );
                } else {
                    assert!(
                        absent_some,
                        "{}: missed key {} present in every overlapping program",
                        server.scheme_name(),
                        r.key
                    );
                }
            }
            assert!(
                skews > 0,
                "{}: no version skew ever observed at 20% churn",
                server.scheme_name()
            );
        });
    }
}
