//! The dynamic broadcast server, [`VersionedServer`].
//!
//! The paper's testbed (§3, Fig. 3) has a `BroadcastServer` that lays out
//! and repeats one broadcast cycle. For a frozen program that is the built
//! [`bda_core::DynSystem`] itself: the simulator, the harness and the CLI hold it
//! directly. A churning program is a [`VersionedServer`].

use bda_core::{
    remix_seed, Broadcast, Dataset, Epoch, GroupConfig, Key, Params, ProgramTimeline, Record,
    Result, Scheme, StripedSystem, System, Ticks, Versioned,
};

use crate::updates::{UpdateSpec, UpdateStream};

/// A dynamic broadcast server: owns the full air history of a mutating
/// database as a [`ProgramTimeline`], built by replaying a deterministic
/// [`UpdateStream`] against the initial dataset at every cycle boundary.
///
/// `VersionedServer` is a [`Broadcast`] over its timeline, so it is a
/// [`bda_core::DynSystem`] through the same blanket implementation as a
/// frozen system: the slab engine, the reference oracle, and the adaptive
/// simulator drive it through the same object-safe surface, and dynamic
/// mode needs zero engine changes. Queries run as the one walk over a
/// [`Versioned`] source: clients detect version skew from bucket headers
/// and re-anchor mid-walk. Scans fast-forward through each epoch up to
/// its end — always in the one-shot `probe*` drivers, and in the slots
/// when the engine asks (its default) — while a fresh slot steps every
/// bucket, as the reference oracle needs.
///
/// The reported [`bda_core::DynSystem::cycle_len`] and
/// [`bda_core::DynSystem::num_buckets`] are those of the *initial*
/// program (epoch 0): request generators use them to scale arrival
/// horizons, and the initial geometry is the stable reference point
/// (per-epoch geometry is available via [`VersionedServer::timeline`]).
pub struct VersionedServer<S: System> {
    timeline: ProgramTimeline<S>,
    /// `(version, dataset)` snapshots in air order — the ground truth the
    /// differential suite's verdict oracle checks outcomes against.
    datasets: Vec<(u64, Dataset)>,
    spec: UpdateSpec,
}

impl<S: System> VersionedServer<S> {
    /// Build the server: construct the initial program at version 0, then
    /// walk `spec.horizon_cycles` cycle boundaries, applying the update
    /// batch at each. A batch that changes nothing extends the current
    /// epoch (no version bump — crucially, a zero-rate spec yields a
    /// single epoch whose walks are bit-identical to the frozen channel);
    /// a real change bumps the version and rebuilds the program via
    /// [`Scheme::rebuild`].
    pub fn build<Sch>(
        scheme: &Sch,
        dataset: &Dataset,
        params: &Params,
        spec: UpdateSpec,
    ) -> Result<Self>
    where
        Sch: Scheme<System = S>,
    {
        let mut records: Vec<Record> = dataset.records().to_vec();
        let mut stream = UpdateStream::new(spec);
        let mut version = 0u64;
        let mut cur_sys = scheme.rebuild(dataset, params, version)?;
        let mut cur_start: Ticks = 0;
        let mut epochs: Vec<Epoch<S>> = Vec::new();
        let mut datasets = vec![(version, dataset.clone())];
        let mut t: Ticks = 0;
        for _ in 0..spec.horizon_cycles {
            // One full cycle of the current program goes on the air...
            t += cur_sys.channel().cycle_len();
            // ...then the server applies this boundary's batch.
            let batch = stream.next_batch(&records);
            if UpdateStream::apply(&mut records, &batch) > 0 {
                version += 1;
                // One dataset per epoch: the program is cut from the
                // snapshot kept for it.
                let snapshot = Dataset::new(records.clone())?;
                let next = scheme.rebuild(&snapshot, params, version)?;
                epochs.push(Epoch {
                    system: std::mem::replace(&mut cur_sys, next),
                    start: cur_start,
                });
                cur_start = t;
                datasets.push((version, snapshot));
            }
        }
        epochs.push(Epoch {
            system: cur_sys,
            start: cur_start,
        });
        Ok(VersionedServer {
            timeline: ProgramTimeline::new(epochs)?,
            datasets,
            spec,
        })
    }

    /// The full air history.
    pub fn timeline(&self) -> &ProgramTimeline<S> {
        &self.timeline
    }

    /// `(version, dataset)` snapshots in air order, one per epoch.
    pub fn datasets(&self) -> &[(u64, Dataset)] {
        &self.datasets
    }

    /// The dataset broadcast at `version`, if that version ever aired.
    pub fn dataset_at(&self, version: u64) -> Option<&Dataset> {
        self.datasets
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, d)| d)
    }

    /// The update stream parameters this server was built with.
    pub fn spec(&self) -> UpdateSpec {
        self.spec
    }

    /// Number of program versions that made it onto the air.
    pub fn num_epochs(&self) -> usize {
        self.timeline.epochs().len()
    }
}

impl<S: System> std::fmt::Debug for VersionedServer<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedServer")
            .field(
                "scheme",
                &System::scheme_name(&self.timeline.epoch(0).system),
            )
            .field("epochs", &self.num_epochs())
            .field("rate", &self.spec.rate)
            .finish()
    }
}

impl<S: System> Broadcast for VersionedServer<S> {
    type Payload = <S as System>::Payload;
    type Machine = <S as System>::Machine;
    type Source<'a>
        = Versioned<'a, S>
    where
        S: 'a;

    fn scheme_name(&self) -> &'static str {
        self.timeline.scheme_name()
    }

    fn cycle_len(&self) -> Ticks {
        self.timeline.cycle_len()
    }

    fn num_buckets(&self) -> usize {
        self.timeline.num_buckets()
    }

    fn tune(&self, key: Key, tune_in: Ticks) -> (Versioned<'_, S>, S::Machine) {
        self.timeline.tune(key, tune_in)
    }
}

/// A striped **dynamic** broadcast group — the multichannel counterpart
/// of [`VersionedServer`], built by [`VersionedServer::build_striped`]:
/// the key-sorted dataset is split into contiguous slices, each slice
/// becomes its own [`VersionedServer`] on its own channel (under
/// [`Params::scaled`] dilation for equal aggregate bandwidth), and each
/// channel's update stream runs with a deterministically remixed seed
/// ([`remix_seed`]) so churn is decorrelated across channels while
/// channel 0 keeps the base stream. It is a [`Broadcast`] as the frozen
/// striped group is: every driver runs a query as the one walk over the
/// routed channel's timeline.
///
/// Routing uses the **initial** partition's bounds, frozen for the whole
/// horizon. A known wart follows: an update stream may insert a key
/// outside its slice's initial key range, and such a key still routes by
/// the frozen bounds — the covering channel answers not-found from the
/// air even though a *different* channel broadcasts the record.
/// Cross-slice rebalancing is a server-side re-partition (a new group
/// build), not something a client-side routing directory can track;
/// every driver sees the same frozen directory, so cross-driver
/// equivalence is unaffected.
pub type StripedVersionedServer<S> = StripedSystem<VersionedServer<S>>;

impl<S: System> VersionedServer<S> {
    /// Build a striped dynamic group: even contiguous partition of
    /// `dataset` over `config.channels` (clamped to the dataset size), one
    /// versioned server per slice, channel `g`'s update stream seeded with
    /// `remix_seed(spec.seed, g)`.
    pub fn build_striped<Sch>(
        scheme: &Sch,
        dataset: &Dataset,
        params: &Params,
        config: GroupConfig,
        spec: UpdateSpec,
    ) -> Result<StripedVersionedServer<S>>
    where
        Sch: Scheme<System = S>,
    {
        StripedSystem::stripe(dataset, params, config, None, |g, slice, scaled| {
            let spec = UpdateSpec {
                seed: remix_seed(spec.seed, g as u32),
                ..spec
            };
            VersionedServer::build(scheme, slice, scaled, spec)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{
        channel_model_for, ChannelModel, DynSystem, ErrorModel, FlatScheme, Record, RetryPolicy,
    };

    fn ds(keys: &[u64]) -> Dataset {
        Dataset::new(keys.iter().map(|&k| Record::keyed(k)).collect()).unwrap()
    }

    #[test]
    fn zero_rate_server_is_a_single_frozen_epoch() {
        let d = ds(&[0, 10, 20, 30]);
        let p = Params::paper();
        let server = VersionedServer::build(&FlatScheme, &d, &p, UpdateSpec::rate(0.0, 1)).unwrap();
        assert_eq!(server.num_epochs(), 1);
        assert_eq!(server.timeline().epoch(0).version(), 0);
        let frozen = FlatScheme.build(&d, &p).unwrap();
        for t in [0u64, 17, 500, 9999] {
            for k in [0u64, 20, 35] {
                assert_eq!(server.probe(Key(k), t), frozen.probe(Key(k), t));
            }
        }
    }

    #[test]
    fn striped_k1_zero_rate_is_bit_identical_to_the_plain_server() {
        let d = ds(&[0, 10, 20, 30, 40, 50]);
        let p = Params::paper();
        let spec = UpdateSpec::rate(0.0, 7);
        let plain = VersionedServer::build(&FlatScheme, &d, &p, spec).unwrap();
        let striped = VersionedServer::build_striped(
            &FlatScheme,
            &d,
            &p,
            bda_core::GroupConfig::new(1, 9_999).unwrap(),
            spec,
        )
        .unwrap();
        assert_eq!(striped.num_channels(), 1);
        for t in [0u64, 17, 500, 9999] {
            for k in [0u64, 30, 55] {
                assert_eq!(striped.probe(Key(k), t), plain.probe(Key(k), t));
            }
        }
    }

    #[test]
    fn striped_zero_rate_matches_the_frozen_striped_group() {
        let d = ds(&[0, 10, 20, 30, 40, 50, 60, 70, 80]);
        let p = Params::paper();
        let config = bda_core::GroupConfig::new(3, 700).unwrap();
        let frozen = bda_core::StripedScheme::new(FlatScheme, config)
            .build(&d, &p)
            .unwrap();
        let striped =
            VersionedServer::build_striped(&FlatScheme, &d, &p, config, UpdateSpec::rate(0.0, 3))
                .unwrap();
        assert_eq!(striped.bounds(), frozen.bounds());
        for t in [0u64, 123, 4567] {
            for k in [0u64, 25, 30, 60, 85, 95] {
                assert_eq!(
                    striped.probe(Key(k), t),
                    frozen.probe(Key(k), t),
                    "key {k} at t={t}"
                );
            }
        }
    }

    #[test]
    fn striped_churn_decorrelates_channels_and_stays_deterministic() {
        let d = ds(&(0..32).map(|i| i * 10).collect::<Vec<_>>());
        let p = Params::paper();
        let config = bda_core::GroupConfig::new(4, 512).unwrap();
        let spec = UpdateSpec::rate(0.25, 41);
        let a = VersionedServer::build_striped(&FlatScheme, &d, &p, config, spec).unwrap();
        assert_eq!(a.num_channels(), 4);
        assert!(
            (0..4).any(|g| a.channel_system(g).num_epochs() > 1),
            "25% churn must version at least one channel"
        );
        // Channel epoch histories differ (remixed seeds decorrelate them)…
        let histories: Vec<Vec<Ticks>> = (0..4)
            .map(|g| {
                a.channel_system(g)
                    .timeline()
                    .epochs()
                    .iter()
                    .map(|e| e.start)
                    .collect()
            })
            .collect();
        assert!(
            histories.iter().any(|h| h != &histories[0]),
            "all channels churned identically: {histories:?}"
        );
        // …while the whole group stays reproducible.
        let b = VersionedServer::build_striped(&FlatScheme, &d, &p, config, spec).unwrap();
        for t in [0u64, 999, 31_337] {
            for k in [0u64, 105, 200, 315] {
                assert_eq!(a.probe(Key(k), t), b.probe(Key(k), t));
            }
        }
    }

    #[test]
    fn striped_churn_deadline_counts_the_retune() {
        // As on a frozen group: a query routed to channel `g` behind
        // deadline `D` is that channel's own timeline probed `sw` ticks
        // later behind `D − sw`, plus `sw` ticks of access.
        let d = ds(&(0..400).map(|i| i * 2).collect::<Vec<_>>());
        let p = Params::paper();
        let spec = UpdateSpec::rate(0.2, 0x5EED);
        let air = ChannelModel::iid(ErrorModel::new(0.3, 0xDEAD));
        let deadline: Ticks = 20_000;
        for sw in [256, 1_500] {
            let config = bda_core::GroupConfig::new(4, sw).unwrap();
            let group = VersionedServer::build_striped(&FlatScheme, &d, &p, config, spec).unwrap();
            let mut moved = 0;
            for i in 0..300u64 {
                let (key, t) = (Key((i * 37 % 400) * 2), i * 7_919);
                let g = group.route(key);
                let sw_g = if g == 0 { 0 } else { sw };
                let routed = |limit| {
                    let policy = RetryPolicy::UNBOUNDED.with_deadline(limit);
                    let g_air = channel_model_for(air, g as u32);
                    let channel = group.channel_system(g);
                    let mut out = channel.probe_with_channel(key, t + sw_g, g_air, policy);
                    out.access += sw_g;
                    out
                };
                let expect = routed(deadline.saturating_sub(sw_g));
                let policy = RetryPolicy::UNBOUNDED.with_deadline(deadline);
                assert_eq!(
                    group.probe_with_channel(key, t, air, policy),
                    expect,
                    "sw={sw} key={key:?} t={t}"
                );
                moved += usize::from(routed(deadline) != expect);
            }
            assert!(moved > 0, "sw={sw}: no query gives up between D - sw and D");
        }
    }

    #[test]
    fn updating_server_versions_advance_and_snapshots_match() {
        let d = ds(&[0, 10, 20, 30, 40, 50, 60, 70]);
        let p = Params::paper();
        let server =
            VersionedServer::build(&FlatScheme, &d, &p, UpdateSpec::rate(0.25, 99)).unwrap();
        assert!(server.num_epochs() > 1, "25% churn must produce epochs");
        // Epoch versions strictly increase and each has a dataset snapshot
        // whose keys are exactly what that epoch's program broadcasts.
        let mut prev = None;
        for (i, e) in server.timeline().epochs().iter().enumerate() {
            let v = e.version();
            if let Some(p) = prev {
                assert!(v > p, "epoch {i} version {v} not after {p}");
            }
            prev = Some(v);
            let snap = server.dataset_at(v).expect("snapshot per version");
            assert_eq!(
                e.system.channel().num_buckets(),
                snap.len(),
                "flat program has one bucket per record"
            );
        }
        assert_eq!(server.datasets().len(), server.num_epochs());
        // Determinism: the same spec rebuilds the identical timeline.
        let again =
            VersionedServer::build(&FlatScheme, &d, &p, UpdateSpec::rate(0.25, 99)).unwrap();
        assert_eq!(again.num_epochs(), server.num_epochs());
        for (a, b) in again
            .timeline()
            .epochs()
            .iter()
            .zip(server.timeline().epochs())
        {
            assert_eq!(a.start, b.start);
            assert_eq!(a.version(), b.version());
        }
    }
}
