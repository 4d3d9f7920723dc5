//! Broadcast-disk wrapping of distributed B⁺-tree indexing: minor cycles
//! are complete self-contained index programs over their chunk's records,
//! so tree navigation never crosses a chunk boundary. The wrapper must be
//! exact at every alignment, reduce to the plain program at D = 1, and
//! recover from corrupted reads by re-routing.

use bda_btree::DistributedScheme;
use bda_core::{
    ChannelModel, Dataset, DiskConfig, DiskScheme, DynSystem, ErrorModel, Key, Params, Record,
    RetryPolicy, Scheme, System,
};

fn dataset(n: u64) -> Dataset {
    Dataset::new((0..n).map(|i| Record::keyed(i * 5 + 2)).collect()).unwrap()
}

#[test]
fn d1_wrapper_is_bit_identical_to_plain_distributed() {
    let ds = dataset(81);
    let p = Params::paper();
    let plain = DistributedScheme::new().build(&ds, &p).unwrap();
    let disks = DiskScheme::new(DistributedScheme::new(), DiskConfig::new(1))
        .build(&ds, &p)
        .unwrap();
    assert_eq!(plain.channel().num_buckets(), disks.channel().num_buckets());
    assert_eq!(plain.channel().cycle_len(), disks.channel().cycle_len());
    let cycle = plain.channel().cycle_len();
    for k in 0..81u64 {
        for s in 0..9u64 {
            let t = s * cycle / 9 + 7;
            assert_eq!(
                plain.probe(Key(k * 5 + 2), t),
                disks.probe(Key(k * 5 + 2), t),
                "key {k} t={t}"
            );
        }
    }
    for k in [0u64, 3, 404, 1000] {
        assert_eq!(plain.probe(Key(k), 19), disks.probe(Key(k), 19));
    }
}

#[test]
fn every_key_found_from_every_alignment_at_d3() {
    let ds = dataset(90);
    let p = Params::paper();
    let sys = DiskScheme::new(DistributedScheme::new(), DiskConfig::new(3))
        .build(&ds, &p)
        .unwrap();
    let cycle = sys.cycle_len();
    for k in 0..90u64 {
        for s in 0..11u64 {
            let out = sys.probe(Key(k * 5 + 2), s * cycle / 11 + 1);
            assert!(out.found, "key {k} slot {s}");
            assert!(!out.aborted);
            assert!(out.tuning <= out.access);
        }
    }
}

#[test]
fn absent_keys_are_rejected_at_d3() {
    let ds = dataset(90);
    let p = Params::paper();
    let sys = DiskScheme::new(DistributedScheme::new(), DiskConfig::new(3))
        .build(&ds, &p)
        .unwrap();
    let cycle = sys.cycle_len();
    for k in [0u64, 1, 3, 10, 448, 450, 999_999] {
        for s in 0..7u64 {
            let out = sys.probe(Key(k), s * cycle / 7 + 2);
            assert!(!out.found, "phantom key {k} slot {s}");
            assert!(!out.aborted);
        }
    }
}

#[test]
fn index_navigation_keeps_tuning_sublinear_at_d3() {
    let ds = dataset(200);
    let p = Params::paper();
    let sys = DiskScheme::new(DistributedScheme::new(), DiskConfig::new(3))
        .build(&ds, &p)
        .unwrap();
    let cycle = sys.cycle_len();
    let mut acc = 0u64;
    let mut tun = 0u64;
    for k in (0..200u64).step_by(3) {
        let out = sys.probe(Key(k * 5 + 2), k * 131 % cycle);
        assert!(out.found);
        acc += out.access;
        tun += out.tuning;
    }
    // Clients doze through routing and tree descent: tuning ≪ access.
    assert!(tun * 5 < acc, "tuning {tun} vs access {acc}");
}

#[test]
fn lossy_channel_recovery_reroutes_correctly() {
    let ds = dataset(60);
    let p = Params::paper();
    let sys = DiskScheme::new(DistributedScheme::new(), DiskConfig::new(2))
        .build(&ds, &p)
        .unwrap();
    let air = ChannelModel::from(ErrorModel::new(0.15, 0xB7EE));
    for k in 0..60u64 {
        let out = sys.probe_with_channel(Key(k * 5 + 2), 23 * k, air, RetryPolicy::UNBOUNDED);
        assert!(out.found, "key {k} lost under 15% loss");
        assert!(!out.aborted);
    }
    for k in [0u64, 4, 777] {
        let out = sys.probe_with_channel(Key(k), 29, air, RetryPolicy::bounded(4));
        assert!(!out.found, "phantom key {k} under loss");
    }
}
