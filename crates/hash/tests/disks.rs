//! Broadcast-disk wrapping of the hashing scheme: the chunked minor-cycle
//! construction must answer every query correctly from every alignment,
//! stay exact about verdicts, survive lossy channels, and reduce to the
//! plain hashing program at D = 1.

use bda_core::{
    ChannelModel, Dataset, DiskConfig, DiskScheme, DynSystem, ErrorModel, Key, Params, Record,
    RetryPolicy, Scheme, System,
};
use bda_hash::HashScheme;

fn dataset(n: u64) -> Dataset {
    Dataset::new((0..n).map(|i| Record::keyed(i * 7 + 3)).collect()).unwrap()
}

#[test]
fn d1_wrapper_is_bit_identical_to_plain_hashing() {
    let ds = dataset(50);
    let p = Params::paper();
    let plain = HashScheme::new().build(&ds, &p).unwrap();
    let disks = DiskScheme::new(HashScheme::new(), DiskConfig::new(1))
        .build(&ds, &p)
        .unwrap();
    assert_eq!(plain.channel().num_buckets(), disks.channel().num_buckets());
    assert_eq!(plain.channel().cycle_len(), disks.channel().cycle_len());
    let cycle = plain.channel().cycle_len();
    for k in 0..50u64 {
        for s in 0..11u64 {
            let t = s * cycle / 11 + 5;
            assert_eq!(
                plain.probe(Key(k * 7 + 3), t),
                disks.probe(Key(k * 7 + 3), t),
                "key {k} t={t}"
            );
        }
    }
    // Absent keys too.
    for k in [0u64, 1, 9, 351] {
        assert_eq!(plain.probe(Key(k), 13), disks.probe(Key(k), 13));
    }
}

#[test]
fn every_key_found_from_every_alignment_at_d3() {
    let ds = dataset(70);
    let p = Params::paper();
    let sys = DiskScheme::new(HashScheme::new(), DiskConfig::new(3))
        .build(&ds, &p)
        .unwrap();
    let cycle = sys.cycle_len();
    for k in 0..70u64 {
        for s in 0..13u64 {
            let out = sys.probe(Key(k * 7 + 3), s * cycle / 13 + 1);
            assert!(out.found, "key {k} slot {s}");
            assert!(!out.aborted);
            assert!(out.tuning <= out.access);
        }
    }
}

#[test]
fn absent_keys_are_rejected_not_fabricated_at_d3() {
    let ds = dataset(70);
    let p = Params::paper();
    let sys = DiskScheme::new(HashScheme::new(), DiskConfig::new(3))
        .build(&ds, &p)
        .unwrap();
    let cycle = sys.cycle_len();
    // Keys below, between and above the broadcast range.
    for k in [0u64, 1, 4, 11, 352, 500, 1_000_000] {
        for s in 0..7u64 {
            let out = sys.probe(Key(k), s * cycle / 7 + 3);
            assert!(!out.found, "phantom key {k} slot {s}");
            assert!(!out.aborted);
        }
    }
}

#[test]
fn hot_keys_wait_less_than_cold_keys_at_d3() {
    let ds = dataset(70);
    let p = Params::paper();
    let sys = DiskScheme::new(HashScheme::new(), DiskConfig::new(3))
        .build(&ds, &p)
        .unwrap();
    let cycle = sys.cycle_len();
    let avg = |key: Key| {
        let mut total = 0u64;
        for s in 0..200u64 {
            let out = sys.probe(key, s * cycle / 200 + 1);
            assert!(out.found);
            total += out.access;
        }
        total / 200
    };
    // Record 0 sits on the fastest disk (4×/cycle), record 69 on the
    // slowest (1×/cycle).
    let hot = avg(Key(3));
    let cold = avg(Key(69 * 7 + 3));
    assert!(hot < cold, "hot={hot} cold={cold}");
}

#[test]
fn lossy_channel_still_terminates_with_exact_verdicts() {
    let ds = dataset(40);
    let p = Params::paper();
    let sys = DiskScheme::new(HashScheme::new(), DiskConfig::new(2))
        .build(&ds, &p)
        .unwrap();
    let air = ChannelModel::from(ErrorModel::new(0.15, 0xD15C));
    for k in 0..40u64 {
        let out = sys.probe_with_channel(Key(k * 7 + 3), 17 * k, air, RetryPolicy::UNBOUNDED);
        assert!(out.found, "key {k} lost under 15% loss");
        assert!(!out.aborted);
    }
    for k in [0u64, 5, 999] {
        let out = sys.probe_with_channel(Key(k), 11, air, RetryPolicy::bounded(4));
        assert!(!out.found, "phantom key {k} under loss");
    }
}
