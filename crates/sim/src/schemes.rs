//! The scheme registry: every access method under test, and the one table
//! that builds it on every program layout.
//!
//! In the paper's testbed the user picks the access method under test and
//! the broadcast server builds that method's channel (§3). [`SchemeKind`]
//! is that choice. [`SchemeKind::visit`] is the one `match` from a kind
//! (and an optional broadcast-disk configuration) to the concrete
//! [`Scheme`] value, handed to a generic [`SchemeVisitor`], so every
//! construction stays monomorphized. [`SchemeKind::build_on`] is the one
//! builder on top of it: it wraps the visited scheme in the requested
//! [`Layout`] and, for a churning program, in a [`VersionedServer`]; flat
//! records also build as the cross-channel indexed group. The
//! CLI, the experiment harness, the golden corpus, the chaos soak and the
//! test suites all build through it.

use std::fmt::{Debug, Display};
use std::str::FromStr;

use bda_btree::{DistributedScheme, OneMScheme};
use bda_core::{
    Dataset, DiskConfig, DiskScheme, DynSystem, FlatDisksScheme, FlatScheme, GroupConfig,
    IndexedGroupScheme, Params, Result, Scheme, StripedScheme, System,
};
use bda_hash::HashScheme;
use bda_hybrid::HybridScheme;
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SimpleSignatureDisksScheme,
    SimpleSignatureScheme,
};

use crate::server::VersionedServer;
use crate::updates::UpdateSpec;

/// The access methods the paper evaluates, plus the two signature
/// extensions and the hybrid, each at its default parameters.
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

/// The program layout a scheme is built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// One channel carrying the scheme's flat cycle.
    Single,
    /// One channel, stratified over broadcast disks. Only some kinds have
    /// a disk layout ([`SchemeKind::has_disks`]).
    Disks(DiskConfig),
    /// Striped over a channel group at equal aggregate bandwidth: even
    /// contiguous slices, or the air-time allocator's slice sizes. A
    /// churning group always stripes evenly, so it takes no partition.
    Striped {
        /// Channel count and retune cost.
        group: GroupConfig,
        /// Slice sizes, one per channel (`None` = even slices).
        partition: Option<Vec<usize>>,
    },
    /// The cross-channel indexed group: a directory on channel 0 pointing
    /// at flat records placed over the other channels. Only [`SchemeKind::Flat`]
    /// has this layout, and only frozen.
    Indexed {
        /// Channel count (the index channel included) and retune cost.
        group: GroupConfig,
        /// Per-record `(channel, slot)`, in key order (`None` = even
        /// contiguous striping over the data channels).
        placement: Option<Vec<(u32, u32)>>,
    },
}

/// A generic operation on the concrete scheme value behind a
/// [`SchemeKind`]: [`SchemeKind::visit`] calls [`SchemeVisitor::visit`]
/// with it, so the operation is monomorphized per scheme.
pub trait SchemeVisitor {
    /// What the operation produces.
    type Output;

    /// Run the operation on `scheme`.
    fn visit<Sch>(self, scheme: Sch) -> Self::Output
    where
        Sch: Scheme,
        Sch::System: 'static,
        <Sch::System as System>::Machine: 'static,
        <Sch::System as System>::Payload: Display + Debug;
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

    /// Command-line name: the display name, except `one-m` for `(1,m)`,
    /// which a shell would need quoted. [`SchemeKind::from_str`] accepts
    /// both.
    pub fn cli_name(&self) -> &'static str {
        match self {
            SchemeKind::OneM => "one-m",
            other => other.name(),
        }
    }

    /// The one table: hand the concrete scheme of this kind — on a single
    /// flat cycle, or stratified over `disks` — to `visitor`. Returns
    /// `None` for a kind without a broadcast-disk layout.
    pub fn visit<V: SchemeVisitor>(
        self,
        disks: Option<DiskConfig>,
        visitor: V,
    ) -> Option<V::Output> {
        use SchemeKind::*;
        Some(match (self, disks) {
            (Flat, None) => visitor.visit(FlatScheme),
            (Flat, Some(d)) => visitor.visit(FlatDisksScheme::new(d)),
            (OneM, None) => visitor.visit(OneMScheme::new()),
            (Distributed, None) => visitor.visit(DistributedScheme::new()),
            (Distributed, Some(d)) => visitor.visit(DiskScheme::new(DistributedScheme::new(), d)),
            (Hashing, None) => visitor.visit(HashScheme::new()),
            (Hashing, Some(d)) => visitor.visit(DiskScheme::new(HashScheme::new(), d)),
            (Signature, None) => visitor.visit(SimpleSignatureScheme::new()),
            (Signature, Some(d)) => visitor.visit(SimpleSignatureDisksScheme::new(d)),
            (IntegratedSignature, None) => visitor.visit(IntegratedSignatureScheme::default()),
            (MultiLevelSignature, None) => visitor.visit(MultiLevelSignatureScheme::default()),
            (Hybrid, None) => visitor.visit(HybridScheme::new()),
            (OneM | IntegratedSignature | MultiLevelSignature | Hybrid, Some(_)) => return None,
        })
    }

    /// Whether this kind has a broadcast-disk layout, read off
    /// [`SchemeKind::visit`]: the two interleaved scan layouts plus the
    /// chunked-navigation wrapper around hashing and distributed indexing.
    pub fn has_disks(self) -> bool {
        struct Nothing;
        impl SchemeVisitor for Nothing {
            type Output = ();
            fn visit<Sch: Scheme>(self, _: Sch) {}
        }
        self.visit(Some(DiskConfig::default()), Nothing).is_some()
    }

    /// Build this scheme for `dataset` under `params` on `layout`: frozen,
    /// or a [`VersionedServer`] replaying `churn`. Returns `None` for the
    /// combinations without a construction — disks on a kind without a
    /// disk layout, an allocator partition on a churning group, and an
    /// indexed group of any kind but flat or with churn. `Disks(1)` and a
    /// one-channel group are bit-identical to `Single`, and a zero-rate
    /// `churn` to the frozen program.
    pub fn build_on(
        &self,
        dataset: &Dataset,
        params: &Params,
        layout: &Layout,
        churn: Option<UpdateSpec>,
    ) -> Option<Result<Box<dyn DynSystem>>> {
        let disks = match layout {
            Layout::Disks(d) => Some(*d),
            Layout::Indexed { group, placement } => {
                if *self != SchemeKind::Flat || churn.is_some() {
                    return None;
                }
                let scheme = match placement {
                    Some(p) => IndexedGroupScheme::with_placement(*group, p.clone()),
                    None => IndexedGroupScheme::new(*group),
                };
                return Some(boxed(scheme.and_then(|s| s.build(dataset, params))));
            }
            _ => None,
        };
        self.visit(
            disks,
            Build {
                dataset,
                params,
                layout,
                churn,
            },
        )
        .flatten()
    }

    /// Build the frozen single-channel system for `dataset` under `params`.
    pub fn build(&self, dataset: &Dataset, params: &Params) -> Result<Box<dyn DynSystem>> {
        self.build_on(dataset, params, &Layout::Single, None)
            .expect("every kind builds on a single channel")
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
        self.build_on(dataset, params, &Layout::Single, Some(spec))
            .expect("every kind builds on a single channel")
    }
}

/// Parse a command-line name (`one-m`, …) or a display name (`(1,m)`).
impl FromStr for SchemeKind {
    type Err = String;

    fn from_str(name: &str) -> std::result::Result<Self, String> {
        SchemeKind::ALL
            .into_iter()
            .find(|k| k.cli_name() == name || k.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown scheme {name:?} (try: {})",
                    SchemeKind::ALL.map(|k| k.cli_name()).join(", ")
                )
            })
    }
}

/// [`SchemeKind::build_on`]'s visitor: wrap the scheme in its layout and
/// churn, then box it.
struct Build<'a> {
    dataset: &'a Dataset,
    params: &'a Params,
    layout: &'a Layout,
    churn: Option<UpdateSpec>,
}

impl SchemeVisitor for Build<'_> {
    type Output = Option<Result<Box<dyn DynSystem>>>;

    fn visit<Sch>(self, scheme: Sch) -> Self::Output
    where
        Sch: Scheme,
        Sch::System: 'static,
        <Sch::System as System>::Machine: 'static,
    {
        let (ds, p) = (self.dataset, self.params);
        Some(match (self.layout, self.churn) {
            (
                Layout::Striped {
                    partition: Some(_), ..
                },
                Some(_),
            ) => return None,
            (Layout::Striped { group, .. }, Some(spec)) => {
                boxed(VersionedServer::build_striped(&scheme, ds, p, *group, spec))
            }
            (Layout::Striped { group, partition }, None) => {
                let striped = match partition {
                    Some(sizes) => StripedScheme::with_partition(scheme, *group, sizes.clone()),
                    None => StripedScheme::new(scheme, *group),
                };
                boxed(striped.build(ds, p))
            }
            (_, Some(spec)) => boxed(VersionedServer::build(&scheme, ds, p, spec)),
            (_, None) => boxed(scheme.build(ds, p)),
        })
    }
}

fn boxed<S: DynSystem + 'static>(built: Result<S>) -> Result<Box<dyn DynSystem>> {
    built.map(|s| Box::new(s) as Box<dyn DynSystem>)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_core::{FlatSystem, Key};
    use bda_datagen::DatasetBuilder;

    /// A key every churning program keeps on the air: present in every
    /// snapshot of the single-channel stream and of its striped channel's
    /// stream. Update streams do not depend on the scheme, so flat
    /// servers stand in for every kind.
    fn kept_key(ds: &Dataset, p: &Params, group: GroupConfig, churn: UpdateSpec) -> Key {
        let single = VersionedServer::build(&FlatScheme, ds, p, churn).unwrap();
        let striped = VersionedServer::build_striped(&FlatScheme, ds, p, group, churn).unwrap();
        let stays = |server: &VersionedServer<FlatSystem>, key| {
            server.datasets().iter().all(|(_, d)| d.contains(key))
        };
        ds.keys()
            .find(|&key| {
                stays(&single, key)
                    && (0..striped.num_channels())
                        .map(|g| striped.channel_system(g))
                        .filter(|channel| channel.datasets()[0].1.contains(key))
                        .all(|channel| stays(channel, key))
            })
            .expect("some key survives the churn")
    }

    /// The registry's conformance table: every kind × {single channel,
    /// 3 broadcast disks, a 2-channel stripe, a 2-channel indexed group}
    /// × {frozen, 10 % churn} builds — or is refused for want of a disk
    /// or indexed layout — reports its name, finds a present key, misses
    /// an absent one on a frozen program, and never aborts.
    #[test]
    fn every_kind_builds_and_answers() {
        let (ds, pool) = DatasetBuilder::new(120, 3)
            .build_with_absent_pool(8)
            .unwrap();
        let params = Params::paper();
        let group = GroupConfig::new(2, 64).unwrap();
        let layouts = [
            Layout::Single,
            Layout::Disks(DiskConfig::new(3)),
            Layout::Striped {
                group,
                partition: None,
            },
            Layout::Indexed {
                group,
                placement: None,
            },
        ];
        let churn = UpdateSpec {
            rate: 0.10,
            seed: 17,
            horizon_cycles: 8,
        };
        let kept = kept_key(&ds, &params, group, churn);
        let mut built = 0;
        for kind in SchemeKind::ALL {
            for layout in &layouts {
                for spec in [None, Some(churn)] {
                    let cell = format!("{} on {layout:?}, churn {spec:?}", kind.name());
                    let indexed = matches!(layout, Layout::Indexed { .. });
                    let Some(sys) = kind.build_on(&ds, &params, layout, spec) else {
                        assert!(
                            (matches!(layout, Layout::Disks(_)) && !kind.has_disks())
                                || (indexed && (kind != SchemeKind::Flat || spec.is_some())),
                            "{cell}: refused"
                        );
                        continue;
                    };
                    let sys = sys.unwrap();
                    built += 1;
                    let name = if indexed {
                        "indexed-group"
                    } else {
                        kind.name()
                    };
                    assert_eq!(sys.scheme_name(), name, "{cell}");
                    let present = sys.probe(kept, 999);
                    assert!(present.found && !present.aborted, "{cell}: {present:?}");
                    let absent = sys.probe(pool[0], 999);
                    assert!(!absent.aborted, "{cell}: {absent:?}");
                    if spec.is_none() {
                        assert!(!absent.found, "{cell}: absent key found");
                    }
                }
            }
        }
        // 8 single + 4 disk + 8 striped programs, each frozen and
        // churning, plus the frozen flat indexed group.
        assert_eq!(built, 41);
        // An allocator partition on a churning group has no construction.
        let partitioned = Layout::Striped {
            group,
            partition: Some(vec![60, 60]),
        };
        assert!(SchemeKind::Flat
            .build_on(&ds, &params, &partitioned, None)
            .is_some());
        assert!(SchemeKind::Flat
            .build_on(&ds, &params, &partitioned, Some(churn))
            .is_none());
    }

    /// The disk layouts beyond the table's `Disks(3)`: exactly the four
    /// kinds with a disk layout build on 2 and 4 disks and answer, the
    /// others are refused on every disk count, and `Disks(1)` broadcasts
    /// the same program as `Single`.
    #[test]
    fn disk_capable_kinds_build_stratified_and_answer() {
        let ds = DatasetBuilder::new(120, 3).build().unwrap();
        let params = Params::paper();
        let capable: Vec<_> = SchemeKind::ALL
            .into_iter()
            .filter(|k| k.has_disks())
            .collect();
        assert_eq!(
            capable,
            [
                SchemeKind::Flat,
                SchemeKind::Distributed,
                SchemeKind::Hashing,
                SchemeKind::Signature
            ]
        );
        for kind in SchemeKind::ALL {
            for d in [1, 2, 4] {
                let built = kind.build_on(&ds, &params, &Layout::Disks(DiskConfig::new(d)), None);
                let Some(sys) = built else {
                    assert!(!kind.has_disks(), "{} on {d} disks: refused", kind.name());
                    continue;
                };
                assert!(kind.has_disks(), "{} on {d} disks: built", kind.name());
                let sys = sys.unwrap();
                assert_eq!(sys.scheme_name(), kind.name());
                for i in [0usize, 17, 119] {
                    let out = sys.probe(ds.record(i).key, 999);
                    assert!(out.found && !out.aborted, "{} on {d} disks", kind.name());
                }
                if d == 1 {
                    let single = kind.build(&ds, &params).unwrap();
                    assert_eq!(sys.cycle_len(), single.cycle_len(), "{}", kind.name());
                    assert_eq!(sys.num_buckets(), single.num_buckets(), "{}", kind.name());
                    for (i, tune_in) in [(5usize, 0), (60, 777), (118, 4321)] {
                        let key = ds.record(i).key;
                        assert_eq!(
                            sys.probe(key, tune_in),
                            single.probe(key, tune_in),
                            "{}",
                            kind.name()
                        );
                    }
                }
            }
        }
    }

    /// `build_versioned` on every kind: a zero-rate stream answers exactly
    /// like the frozen program, and under 10 % churn a key that stays on
    /// the air is found and no probe aborts.
    #[test]
    fn every_kind_builds_versioned_and_stays_truthful() {
        let ds = DatasetBuilder::new(80, 3).build().unwrap();
        let params = Params::paper();
        let churn = UpdateSpec {
            rate: 0.10,
            seed: 17,
            horizon_cycles: 8,
        };
        let still = UpdateSpec { rate: 0.0, ..churn };
        let kept = kept_key(&ds, &params, GroupConfig::new(2, 64).unwrap(), churn);
        for kind in SchemeKind::ALL {
            let frozen = kind.build(&ds, &params).unwrap();
            let unchanged = kind.build_versioned(&ds, &params, still).unwrap();
            assert_eq!(unchanged.cycle_len(), frozen.cycle_len(), "{}", kind.name());
            for (i, tune_in) in [(3usize, 0), (40, 999), (77, 5000)] {
                let key = ds.record(i).key;
                assert_eq!(
                    unchanged.probe(key, tune_in),
                    frozen.probe(key, tune_in),
                    "{}",
                    kind.name()
                );
            }
            let sys = kind.build_versioned(&ds, &params, churn).unwrap();
            assert_eq!(sys.scheme_name(), kind.name());
            for tune_in in [0, 999, 5 * sys.cycle_len()] {
                let out = sys.probe(kept, tune_in);
                assert!(out.found && !out.aborted, "{}: {out:?}", kind.name());
                for i in [3usize, 40, 77] {
                    let out = sys.probe(ds.record(i).key, tune_in);
                    assert!(!out.aborted, "{}", kind.name());
                }
            }
        }
    }

    #[test]
    fn names_parse_back_to_their_kind() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.cli_name().parse::<SchemeKind>(), Ok(kind));
            assert_eq!(kind.name().parse::<SchemeKind>(), Ok(kind));
        }
        assert_eq!("(1,m)".parse::<SchemeKind>(), Ok(SchemeKind::OneM));
        let err = "bogus".parse::<SchemeKind>().unwrap_err();
        assert_eq!(
            err,
            "unknown scheme \"bogus\" (try: flat, one-m, distributed, hashing, signature, \
             integrated-signature, multilevel-signature, hybrid)"
        );
    }
}
