//! Uniform construction of every access method under test.

use bda_btree::{DistributedScheme, OneMScheme};
use bda_core::{
    Dataset, DiskConfig, DiskScheme, DynSystem, FlatDisksScheme, GroupConfig, IndexedGroupScheme,
    Params, Result, Scheme, StripedScheme, System,
};
use bda_hash::HashScheme;
use bda_hybrid::HybridScheme;
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SimpleSignatureDisksScheme,
    SimpleSignatureScheme,
};
use bda_sim::{UpdateSpec, VersionedServer};

/// The access methods the paper evaluates, plus the two signature
/// extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Plain broadcast, no index.
    Flat,
    /// `(1,m)` indexing at the optimal `m`.
    OneM,
    /// Distributed indexing at the optimal `r`.
    Distributed,
    /// Simple hashing (well-mixed hash, load factor 1).
    Hashing,
    /// Simple signature indexing.
    Signature,
    /// Integrated signatures (extension).
    IntegratedSignature,
    /// Multi-level signatures (extension).
    MultiLevelSignature,
    /// Hybrid index tree + signatures (extension; key queries only here —
    /// attribute queries are exercised by the `ext_hybrid` bench).
    Hybrid,
}

impl SchemeKind {
    /// The five schemes the paper compares (Figs. 4–6).
    pub const PAPER: [SchemeKind; 5] = [
        SchemeKind::Flat,
        SchemeKind::OneM,
        SchemeKind::Distributed,
        SchemeKind::Hashing,
        SchemeKind::Signature,
    ];

    /// Everything, extensions included.
    pub const ALL: [SchemeKind; 8] = [
        SchemeKind::Flat,
        SchemeKind::OneM,
        SchemeKind::Distributed,
        SchemeKind::Hashing,
        SchemeKind::Signature,
        SchemeKind::IntegratedSignature,
        SchemeKind::MultiLevelSignature,
        SchemeKind::Hybrid,
    ];

    /// Display name (matches the systems' `scheme_name`).
    pub fn name(&self) -> &'static str {
        match self {
            SchemeKind::Flat => "flat",
            SchemeKind::OneM => "(1,m)",
            SchemeKind::Distributed => "distributed",
            SchemeKind::Hashing => "hashing",
            SchemeKind::Signature => "signature",
            SchemeKind::IntegratedSignature => "integrated-signature",
            SchemeKind::MultiLevelSignature => "multilevel-signature",
            SchemeKind::Hybrid => "hybrid",
        }
    }

    /// Build the broadcast system for `dataset` under `params`.
    pub fn build(&self, dataset: &Dataset, params: &Params) -> Result<Box<dyn DynSystem>> {
        Ok(match self {
            SchemeKind::Flat => Box::new(bda_core::FlatScheme.build(dataset, params)?),
            SchemeKind::OneM => Box::new(OneMScheme::new().build(dataset, params)?),
            SchemeKind::Distributed => Box::new(DistributedScheme::new().build(dataset, params)?),
            SchemeKind::Hashing => Box::new(HashScheme::new().build(dataset, params)?),
            SchemeKind::Signature => Box::new(SimpleSignatureScheme::new().build(dataset, params)?),
            SchemeKind::IntegratedSignature => {
                Box::new(IntegratedSignatureScheme::default().build(dataset, params)?)
            }
            SchemeKind::MultiLevelSignature => {
                Box::new(MultiLevelSignatureScheme::default().build(dataset, params)?)
            }
            SchemeKind::Hybrid => Box::new(HybridScheme::new().build(dataset, params)?),
        })
    }

    /// The kinds with a broadcast-disk (stratified) construction: the two
    /// interleaved scan layouts plus the chunked-navigation wrapper around
    /// hashing and distributed indexing.
    pub const DISK_CAPABLE: [SchemeKind; 4] = [
        SchemeKind::Flat,
        SchemeKind::Signature,
        SchemeKind::Hashing,
        SchemeKind::Distributed,
    ];

    /// Build the stratified broadcast-disk variant of this scheme at
    /// `disks` relative-speed disks. `D = 1` is bit-identical to the flat
    /// cycle [`SchemeKind::build`] produces. Returns `None` for kinds
    /// without a disk construction.
    pub fn build_disks(
        &self,
        dataset: &Dataset,
        params: &Params,
        disks: usize,
    ) -> Option<Result<Box<dyn DynSystem>>> {
        fn boxed<S: System + 'static>(r: Result<S>) -> Result<Box<dyn DynSystem>>
        where
            S::Machine: 'static,
        {
            r.map(|s| Box::new(s) as Box<dyn DynSystem>)
        }
        let d = DiskConfig::new(disks);
        Some(match self {
            SchemeKind::Flat => boxed(FlatDisksScheme::new(d).build(dataset, params)),
            SchemeKind::Signature => {
                boxed(SimpleSignatureDisksScheme::new(d).build(dataset, params))
            }
            SchemeKind::Hashing => {
                boxed(DiskScheme::new(HashScheme::new(), d).build(dataset, params))
            }
            SchemeKind::Distributed => {
                boxed(DiskScheme::new(DistributedScheme::new(), d).build(dataset, params))
            }
            _ => return None,
        })
    }

    /// Build a **dynamic** broadcast server for this scheme: the program
    /// is rebuilt (with a bumped cycle version) after every cycle the
    /// update stream mutates the dataset. With `spec.rate == 0` the result
    /// is bit-identical to [`SchemeKind::build`].
    pub fn build_versioned(
        &self,
        dataset: &Dataset,
        params: &Params,
        spec: UpdateSpec,
    ) -> Result<Box<dyn DynSystem>> {
        fn v<Sch: Scheme>(
            scheme: Sch,
            ds: &Dataset,
            p: &Params,
            spec: UpdateSpec,
        ) -> Result<Box<dyn DynSystem>>
        where
            Sch::System: 'static,
            <Sch::System as System>::Machine: 'static,
        {
            Ok(Box::new(VersionedServer::build(&scheme, ds, p, spec)?))
        }
        match self {
            SchemeKind::Flat => v(bda_core::FlatScheme, dataset, params, spec),
            SchemeKind::OneM => v(OneMScheme::new(), dataset, params, spec),
            SchemeKind::Distributed => v(DistributedScheme::new(), dataset, params, spec),
            SchemeKind::Hashing => v(HashScheme::new(), dataset, params, spec),
            SchemeKind::Signature => v(SimpleSignatureScheme::new(), dataset, params, spec),
            SchemeKind::IntegratedSignature => {
                v(IntegratedSignatureScheme::default(), dataset, params, spec)
            }
            SchemeKind::MultiLevelSignature => {
                v(MultiLevelSignatureScheme::default(), dataset, params, spec)
            }
            SchemeKind::Hybrid => v(HybridScheme::new(), dataset, params, spec),
        }
    }
    /// The kinds the multichannel conformance sweeps exercise: one scan
    /// layout, one hash layout and one signature layout. Every kind
    /// *builds* striped ([`StripedScheme`] is generic over the inner
    /// scheme); these three are the representative subset the golden
    /// corpus, the equivalence wall and the `ext_multichannel` sweep pin.
    pub const MULTI_CAPABLE: [SchemeKind; 3] =
        [SchemeKind::Flat, SchemeKind::Hashing, SchemeKind::Signature];

    /// Build the striped multichannel variant of this scheme: the dataset
    /// is split into `config.channels` contiguous slices (even, or the
    /// given allocator `partition`), each broadcast as a self-contained
    /// inner program on its own channel at equal aggregate bandwidth.
    /// `K = 1` is bit-identical to [`SchemeKind::build`].
    pub fn build_multichannel(
        &self,
        dataset: &Dataset,
        params: &Params,
        config: GroupConfig,
        partition: Option<Vec<usize>>,
    ) -> Result<Box<dyn DynSystem>> {
        fn s<Sch: Scheme>(
            scheme: Sch,
            ds: &Dataset,
            p: &Params,
            config: GroupConfig,
            partition: Option<Vec<usize>>,
        ) -> Result<Box<dyn DynSystem>>
        where
            Sch::System: 'static,
            <Sch::System as System>::Machine: 'static,
        {
            let striped = match partition {
                Some(sizes) => StripedScheme::with_partition(scheme, config, sizes),
                None => StripedScheme::new(scheme, config),
            };
            Ok(Box::new(striped.build(ds, p)?))
        }
        match self {
            SchemeKind::Flat => s(bda_core::FlatScheme, dataset, params, config, partition),
            SchemeKind::OneM => s(OneMScheme::new(), dataset, params, config, partition),
            SchemeKind::Distributed => {
                s(DistributedScheme::new(), dataset, params, config, partition)
            }
            SchemeKind::Hashing => s(HashScheme::new(), dataset, params, config, partition),
            SchemeKind::Signature => s(
                SimpleSignatureScheme::new(),
                dataset,
                params,
                config,
                partition,
            ),
            SchemeKind::IntegratedSignature => s(
                IntegratedSignatureScheme::default(),
                dataset,
                params,
                config,
                partition,
            ),
            SchemeKind::MultiLevelSignature => s(
                MultiLevelSignatureScheme::default(),
                dataset,
                params,
                config,
                partition,
            ),
            SchemeKind::Hybrid => s(HybridScheme::new(), dataset, params, config, partition),
        }
    }

    /// Build the striped multichannel variant as a **dynamic** group: one
    /// versioned server per channel, churn streams decorrelated per
    /// channel. `spec.rate == 0` is bit-identical to the frozen group.
    pub fn build_multichannel_versioned(
        &self,
        dataset: &Dataset,
        params: &Params,
        config: GroupConfig,
        spec: UpdateSpec,
    ) -> Result<Box<dyn DynSystem>> {
        fn s<Sch: Scheme>(
            scheme: Sch,
            ds: &Dataset,
            p: &Params,
            config: GroupConfig,
            spec: UpdateSpec,
        ) -> Result<Box<dyn DynSystem>>
        where
            Sch::System: 'static,
            <Sch::System as System>::Machine: 'static,
        {
            Ok(Box::new(VersionedServer::build_striped(
                &scheme, ds, p, config, spec,
            )?))
        }
        match self {
            SchemeKind::Flat => s(bda_core::FlatScheme, dataset, params, config, spec),
            SchemeKind::OneM => s(OneMScheme::new(), dataset, params, config, spec),
            SchemeKind::Distributed => s(DistributedScheme::new(), dataset, params, config, spec),
            SchemeKind::Hashing => s(HashScheme::new(), dataset, params, config, spec),
            SchemeKind::Signature => s(SimpleSignatureScheme::new(), dataset, params, config, spec),
            SchemeKind::IntegratedSignature => s(
                IntegratedSignatureScheme::default(),
                dataset,
                params,
                config,
                spec,
            ),
            SchemeKind::MultiLevelSignature => s(
                MultiLevelSignatureScheme::default(),
                dataset,
                params,
                config,
                spec,
            ),
            SchemeKind::Hybrid => s(HybridScheme::new(), dataset, params, config, spec),
        }
    }
}

/// Build the cross-channel **indexed group**: the index (roots +
/// directory) cycles on channel 0 and points at data buckets striped over
/// channels `1..K` via `(channel, offset)` bucket references. Not a
/// [`SchemeKind`] variant — the layout is its own scheme, with an
/// optional allocator `placement` (one `(channel, slot)` per record).
pub fn build_indexed_group(
    dataset: &Dataset,
    params: &Params,
    config: GroupConfig,
    placement: Option<Vec<(u32, u32)>>,
) -> Result<Box<dyn DynSystem>> {
    let scheme = match placement {
        Some(p) => IndexedGroupScheme::with_placement(config, p),
        None => IndexedGroupScheme::new(config),
    };
    Ok(Box::new(scheme?.build(dataset, params)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_datagen::DatasetBuilder;

    #[test]
    fn every_kind_builds_and_answers() {
        let ds = DatasetBuilder::new(120, 3).build().unwrap();
        let params = Params::paper();
        for kind in SchemeKind::ALL {
            let sys = kind.build(&ds, &params).unwrap();
            assert_eq!(sys.scheme_name(), kind.name());
            let key = ds.record(17).key;
            let out = sys.probe(key, 999);
            assert!(out.found, "{}", kind.name());
            assert!(!out.aborted);
        }
    }

    #[test]
    fn disk_capable_kinds_build_stratified_and_answer() {
        let ds = DatasetBuilder::new(120, 3).build().unwrap();
        let params = Params::paper();
        for kind in SchemeKind::ALL {
            let built = kind.build_disks(&ds, &params, 3);
            if !SchemeKind::DISK_CAPABLE.contains(&kind) {
                assert!(built.is_none(), "{}", kind.name());
                continue;
            }
            let sys = built.expect("disk-capable").unwrap();
            assert_eq!(sys.scheme_name(), kind.name());
            let out = sys.probe(ds.record(17).key, 999);
            assert!(out.found, "{}", kind.name());
            assert!(!out.aborted);
        }
    }

    #[test]
    fn every_kind_builds_versioned_and_stays_truthful() {
        let ds = DatasetBuilder::new(80, 3).build().unwrap();
        let params = Params::paper();
        let spec = UpdateSpec {
            rate: 0.10,
            seed: 17,
            horizon_cycles: 8,
        };
        for kind in SchemeKind::ALL {
            let sys = kind.build_versioned(&ds, &params, spec).unwrap();
            assert_eq!(sys.scheme_name(), kind.name());
            for i in [3usize, 40, 77] {
                let out = sys.probe(ds.record(i).key, 999);
                assert!(!out.aborted, "{}", kind.name());
            }
        }
    }
}
