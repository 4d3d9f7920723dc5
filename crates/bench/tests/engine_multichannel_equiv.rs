//! Multichannel differential suite: channel groups must not open any gap
//! between the execution drivers. Striped flat, hashing and signature
//! programs and the cross-channel indexed group of flat records run
//! through the conformance wall (`bda_bench::conformance`) — every driver
//! and recorder, with the direct walker's recorded spans folded into a hub
//! that must equal the engine's, `ChannelSwitch` phase included — at
//! group shapes beside the matrix's three channels at switch cost 199
//! (`conformance.rs`): three channels with free retunes and four paying
//! 257 bytes. Per-channel fault seeds are remixed deterministically, so
//! every driver sees the same loss on the same channel at the same
//! instant.

use bda_bench::conformance::{check_all, Arrivals, Cell};
use bda_core::{BurstModel, ChannelModel, ErrorModel, GroupConfig, OutageSchedule, RetryPolicy};
use bda_sim::{Layout, SchemeKind};

/// The striping conformance subset: one scan layout, one hash layout and
/// one signature layout.
const STRIPED: [SchemeKind; 3] = [SchemeKind::Flat, SchemeKind::Hashing, SchemeKind::Signature];

/// Resynchronization under dead air: a bounded, capped, jittered back-off.
fn resync() -> RetryPolicy {
    RetryPolicy::bounded(24)
        .with_backoff_cap(8)
        .with_jitter(0x1EE7)
}

/// Every driver agrees on every multichannel program over lossless air,
/// 15 % i.i.d. loss under a two-retry budget, and burst loss with
/// outages, at both group shapes.
#[test]
fn all_drivers_agree_on_multichannel_groups() {
    let airs = [
        (ChannelModel::NONE, RetryPolicy::UNBOUNDED),
        (
            ErrorModel::new(0.15, 0xFA57).into(),
            RetryPolicy::bounded(2),
        ),
        (
            ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0xB0B))
                .with_outages(OutageSchedule::new(2_500, 250, 0x0A7)),
            resync(),
        ),
    ];
    let base = Cell::single(0x6C64, 64, 72, Arrivals::Cycles(8));
    let mut cells = Vec::new();
    for group in [GroupConfig::new(3, 0), GroupConfig::new(4, 257)] {
        let group = group.expect("a valid group");
        let striped = Cell {
            layout: Layout::Striped {
                group,
                partition: None,
            },
            ..base.clone()
        };
        let indexed = Cell {
            layout: Layout::Indexed {
                group,
                placement: None,
            },
            ..base.clone()
        };
        cells.extend(striped.across(&STRIPED, &airs));
        cells.extend(indexed.across(&[SchemeKind::Flat], &airs));
    }
    check_all(&cells);
}

/// Striped groups whose channels are churning versioned programs (20 % of
/// each slice touched per cycle) still agree across every driver under
/// burst loss plus outages, and skew some walk of every scheme.
#[test]
fn churning_striped_groups_agree_across_drivers() {
    let air = ChannelModel::burst(BurstModel::new(0.05, 0.25, 0.0, 1.0, 0x717))
        .with_outages(OutageSchedule::new(2_000, 200, 0x0A7));
    let base = Cell {
        churn_pct: 20,
        layout: Layout::Striped {
            group: GroupConfig::new(3, 199).expect("a valid group"),
            partition: None,
        },
        ..Cell::single(0x6C48, 48, 48, Arrivals::Cycles(8))
    };
    check_all(&base.across(&STRIPED, &[(air, resync())]));
}
