//! # bda — Broadcast-Based Data Access in Wireless Environments
//!
//! A from-scratch Rust reproduction of Yang & Bouguettaya, *Broadcast-Based
//! Data Access in Wireless Environments* (EDBT 2002): the broadcast-channel
//! substrate, the five air-indexing access methods the paper compares, the
//! adaptive discrete-event testbed, the closed-form analytical models, and
//! the experiment harness that regenerates every table and figure of the
//! evaluation.
//!
//! This crate is the public facade: it re-exports the workspace so an
//! application needs a single dependency.
//!
//! ## Quick start
//!
//! ```
//! use bda::prelude::*;
//!
//! // 1. A dataset (the paper broadcasts a ~35k-record dictionary; any
//! //    key-sorted records work).
//! let dataset = DatasetBuilder::new(1_000, 42).build().unwrap();
//!
//! // 2. Pick an access method and lay out the broadcast cycle.
//! let params = Params::paper();
//! let system = DistributedScheme::new().build(&dataset, &params).unwrap();
//!
//! // 3. A client tunes in at any instant and runs the access protocol.
//! let key = dataset.record(123).key;
//! let outcome = system.probe(key, 777_777);
//! assert!(outcome.found);
//! // Access time = client waiting time; tuning time = energy spent
//! // listening. Both in bytes, as in the paper.
//! assert!(outcome.tuning <= outcome.access);
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |-----------|-------|----------|
//! | [`core`] | `bda-core` | buckets, channels, protocol machines, flat broadcast |
//! | [`btree`] | `bda-btree` | `(1,m)` and distributed indexing |
//! | [`hash`] | `bda-hash` | simple hashing |
//! | [`signature`] | `bda-signature` | simple / integrated / multi-level signatures |
//! | [`datagen`] | `bda-datagen` | synthetic dictionary, workloads, deterministic RNG |
//! | [`sim`] | `bda-sim` | discrete-event testbed with confidence-controlled termination |
//! | [`analytical`] | `bda-analytical` | closed-form At/Tt models (paper §2) |

pub use bda_analytical as analytical;
pub use bda_btree as btree;
pub use bda_core as core;
pub use bda_datagen as datagen;
pub use bda_hash as hash;
pub use bda_hybrid as hybrid;
pub use bda_signature as signature;
pub use bda_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use bda_btree::{DistributedScheme, OneMScheme};
    pub use bda_core::{
        AccessOutcome, BucketRef, Channel, Dataset, DiskConfig, DiskLayout, DiskScheme, DynSystem,
        FlatDisksScheme, FlatScheme, GroupConfig, IndexedGroupScheme, Key, Params, Record, Scheme,
        StripedScheme, System, Ticks,
    };
    pub use bda_datagen::{
        zipf_ranking, zipf_weights, Arrivals, DatasetBuilder, Popularity, Prng, QueryWorkload,
    };
    pub use bda_hash::{HashFn, HashScheme};
    pub use bda_hybrid::HybridScheme;
    pub use bda_signature::{
        IntegratedSignatureScheme, MultiLevelSignatureScheme, SigParams,
        SimpleSignatureDisksScheme, SimpleSignatureScheme,
    };
    pub use bda_sim::{Driver, Layout, SchemeKind, SimConfig, SimReport, Simulator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_builds_every_scheme() {
        let ds = DatasetBuilder::new(64, 1).build().unwrap();
        let p = Params::paper();
        let key = ds.record(10).key;
        assert!(FlatScheme.build(&ds, &p).unwrap().probe(key, 0).found);
        assert!(
            OneMScheme::new()
                .build(&ds, &p)
                .unwrap()
                .probe(key, 0)
                .found
        );
        assert!(
            DistributedScheme::new()
                .build(&ds, &p)
                .unwrap()
                .probe(key, 0)
                .found
        );
        assert!(
            HashScheme::new()
                .build(&ds, &p)
                .unwrap()
                .probe(key, 0)
                .found
        );
        assert!(
            SimpleSignatureScheme::new()
                .build(&ds, &p)
                .unwrap()
                .probe(key, 0)
                .found
        );
    }
}
