//! The conformance matrix: every cell the scheme registry builds, over
//! layout × channel × churn, through one driver wall
//! ([`bda_bench::conformance`]) — the direct walker, the slab engine
//! (fast-forward on, off, and a second batch on the same engine), the
//! reference oracle and the sharded engine at 1, 2, 3 and 7 shards, each
//! with the noop, span and windowed recorders.
//!
//! * layout: one channel, three broadcast disks, a three-channel striped
//!   group (even slices, and frozen, an uneven partition) and the
//!   three-channel indexed group of flat records (even placement and an
//!   uneven, interleaved one; frozen only);
//! * channel: lossless; 10 % i.i.d. loss under a two-retry budget; rare
//!   (0.1 %) i.i.d. loss; Gilbert–Elliott burst loss plus outages under a
//!   capped, jittered back-off;
//! * churn: a frozen program, and 20 % of records updated per cycle.
//!
//! A failure names the first failing cell and the first divergence or
//! broken invariant in it. The per-axis tests beside this one
//! (`*_equiv.rs`, and the workspace's `tests/drivers_equiv.rs`) run their
//! own configurations through the same wall; the properties that are not
//! per-cell are focused tests beside the drivers (`crates/sim/tests`).

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_bench::SchemeKind;
use bda_core::{
    BurstModel, ChannelModel, DiskConfig, ErrorModel, GroupConfig, OutageSchedule, Params,
    RetryPolicy,
};
use bda_datagen::DatasetBuilder;
use bda_sim::{Layout, UpdateSpec};

/// The seed every cell shares: one dataset and request stream per size.
const SEED: u64 = 0xC0FF_EE25;

/// The channel axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Air {
    Lossless,
    Lossy,
    Rare,
    Burst,
}

impl Air {
    const ALL: [Air; 4] = [Air::Lossless, Air::Lossy, Air::Rare, Air::Burst];

    fn channel(self) -> (ChannelModel, RetryPolicy) {
        match self {
            Air::Lossless => (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
            Air::Lossy => (
                ErrorModel::new(0.10, 0xFA57).into(),
                RetryPolicy::bounded(2),
            ),
            Air::Rare => (
                ErrorModel::new(0.001, 0x0DD5).into(),
                RetryPolicy::UNBOUNDED,
            ),
            Air::Burst => (
                ChannelModel::burst(BurstModel::new(0.04, 0.20, 0.0, 0.9, 0xB57))
                    .with_outages(OutageSchedule::new(3_000, 300, 0x0A7)),
                RetryPolicy::bounded(24)
                    .with_backoff_cap(8)
                    .with_jitter(0x117),
            ),
        }
    }

    /// Records per cell. Under rare loss every channel of every layout
    /// must air more than the 64 buckets a lossy fast-forward run is cut
    /// at: a quarter of 300 records is 75.
    fn records(self) -> usize {
        if self == Air::Rare {
            300
        } else {
            150
        }
    }

    /// Requests per cell and the broadcast cycles they tune in over. Rare
    /// loss corrupts about one read in a thousand, so its cells spread
    /// their queries over 256 cycles, where their reads are distinct, and
    /// take enough of them to corrupt a read: a flat or simple-signature
    /// scan reads every bucket it passes, a frame scan (integrated and
    /// multilevel signatures) about one per frame, an index walk a handful.
    fn requests(self, kind: SchemeKind, layout: &Layout) -> (usize, u64) {
        if self != Air::Rare {
            return (60, 8);
        }
        let requests = match kind {
            _ if matches!(layout, Layout::Indexed { .. }) => 2_000,
            SchemeKind::Flat | SchemeKind::Signature => 200,
            SchemeKind::IntegratedSignature | SchemeKind::MultiLevelSignature => 1_000,
            _ => 2_000,
        };
        (requests, 256)
    }
}

/// The layout axis at a record count: the uneven stripe puts a quarter, a
/// third and the rest of the records on the three channels, the uneven
/// indexed group a third and two thirds on its two data channels.
fn layouts(records: usize) -> Vec<Layout> {
    let group = GroupConfig::new(3, 199).expect("three channels");
    let quarter = records / 4;
    let third = records / 3;
    // Every third record on data channel 1, the rest on channel 2.
    let placement = (0..records)
        .map(|i| {
            if i % 3 == 0 {
                (1, (i / 3) as u32)
            } else {
                (2, (i - i / 3 - 1) as u32)
            }
        })
        .collect();
    vec![
        Layout::Single,
        Layout::Disks(DiskConfig::new(3)),
        Layout::Striped {
            group,
            partition: None,
        },
        Layout::Striped {
            group,
            partition: Some(vec![quarter, third, records - quarter - third]),
        },
        Layout::Indexed {
            group,
            placement: None,
        },
        Layout::Indexed {
            group,
            placement: Some(placement),
        },
    ]
}

/// Every cell the registry builds. Whether it builds depends on the kind,
/// the layout and whether the program churns, never on the dataset, so a
/// small one asks.
fn cells() -> Vec<Cell> {
    let probe = DatasetBuilder::new(12, SEED).build().expect("dataset");
    let params = Params::paper();
    let mut cells = Vec::new();
    for air in Air::ALL {
        let records = air.records();
        let (channel, policy) = air.channel();
        for layout in layouts(records) {
            for kind in SchemeKind::ALL {
                for churn_pct in [0, 20] {
                    let churn = (churn_pct > 0).then_some(UpdateSpec {
                        rate: 0.2,
                        seed: SEED,
                        horizon_cycles: 1,
                    });
                    if kind.build_on(&probe, &params, &layout, churn).is_none() {
                        continue;
                    }
                    let (requests, cycles) = air.requests(kind, &layout);
                    cells.push(Cell {
                        seed: SEED,
                        kind,
                        records,
                        requests,
                        arrivals: Arrivals::Cycles(cycles),
                        channel,
                        policy,
                        churn_pct,
                        layout: layout.clone(),
                    });
                }
            }
        }
    }
    cells
}

#[test]
fn every_cell_passes_the_wall() {
    let cells = cells();
    assert_eq!(cells.len(), 200, "the registry builds a different matrix");
    check_all(&cells);
}
