//! Every scheme builds the same program it always has: a digest of each
//! built cycle (every bucket's size, version and payload `Debug` text, and
//! the cycle length) is pinned for the eight kinds at 1, 17, 1 000 and
//! 10 000 records, single-channel and, where a kind has one, on a
//! three-disk layout. A build rewrite that moves one pointer, reorders
//! one chain or drops one attribute changes a digest.

use std::fmt::{Debug, Display, Write};

use bda_core::{DiskConfig, Params, Scheme, System};
use bda_datagen::DatasetBuilder;
use bda_sim::{SchemeKind, SchemeVisitor};

/// FNV-1a over everything written to it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Build the visited scheme over a dataset and digest its cycle.
struct Digest<'a> {
    dataset: &'a bda_core::Dataset,
}

impl SchemeVisitor for Digest<'_> {
    type Output = u64;

    fn visit<Sch>(self, scheme: Sch) -> u64
    where
        Sch: Scheme,
        <Sch::System as System>::Payload: Display + Debug,
    {
        let sys = scheme.build(self.dataset, &Params::paper()).unwrap();
        let channel = sys.channel();
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        for b in channel.buckets() {
            writeln!(h, "{} {} {:?}", b.size, b.version, b.payload).unwrap();
        }
        write!(h, "cycle {}", channel.cycle_len()).unwrap();
        h.0
    }
}

/// `(kind, disks, records, digest)`, captured from the builds these
/// programs had before any build was rewritten for speed.
const PINNED: &[(&str, usize, usize, u64)] = &[
    ("flat", 1, 1, 0x9c8a823a18f6a24e),
    ("flat", 3, 1, 0x9c8a823a18f6a24e),
    ("one-m", 1, 1, 0xce681bc6042d77db),
    ("distributed", 1, 1, 0xce681bc6042d77db),
    ("distributed", 3, 1, 0xce681bc6042d77db),
    ("hashing", 1, 1, 0x6617eea77c7806f4),
    ("hashing", 3, 1, 0x6617eea77c7806f4),
    ("signature", 1, 1, 0xfffda7b35f249dd5),
    ("signature", 3, 1, 0xfffda7b35f249dd5),
    ("integrated-signature", 1, 1, 0x9c7324a98b630ce9),
    ("multilevel-signature", 1, 1, 0x15b685a59e102484),
    ("hybrid", 1, 1, 0xe8bc5ad1c0b21691),
    ("flat", 1, 17, 0x9e139aadd89834ab),
    ("flat", 3, 17, 0x460110d6945aa611),
    ("one-m", 1, 17, 0x105f47dab5484fd7),
    ("distributed", 1, 17, 0x49036c57ebccf944),
    ("distributed", 3, 17, 0x60512fcd04e5a169),
    ("hashing", 1, 17, 0xa804f8b3eb833c6e),
    ("hashing", 3, 17, 0xbaeabe1ac958b18e),
    ("signature", 1, 17, 0xf216a74296a673a4),
    ("signature", 3, 17, 0xb59f915adfb02c2f),
    ("integrated-signature", 1, 17, 0x2a6719b0006a2c83),
    ("multilevel-signature", 1, 17, 0xf892593e8666452f),
    ("hybrid", 1, 17, 0x7bebe3710def212c),
    ("flat", 1, 1000, 0xaf80d4d3d3bec8e8),
    ("flat", 3, 1000, 0x1e9d9da53448278e),
    ("one-m", 1, 1000, 0xfc103db7a7f8501e),
    ("distributed", 1, 1000, 0xb3351c6502e2b418),
    ("distributed", 3, 1000, 0x065d914d4c9b76c7),
    ("hashing", 1, 1000, 0x7e53745c10a29861),
    ("hashing", 3, 1000, 0x21312d0338949c07),
    ("signature", 1, 1000, 0xd2051e80608c7d53),
    ("signature", 3, 1000, 0x1c6d73f701cf38d3),
    ("integrated-signature", 1, 1000, 0xe3c323589ae97da2),
    ("multilevel-signature", 1, 1000, 0x65d484b9dc95e2d8),
    ("hybrid", 1, 1000, 0x37dcfcdccf844558),
    ("flat", 1, 10000, 0xf3ced4c01e2806ed),
    ("flat", 3, 10000, 0x1b61979061b47e05),
    ("one-m", 1, 10000, 0xad3e2cd26851c00d),
    ("distributed", 1, 10000, 0xa21b5fa136b383de),
    ("distributed", 3, 10000, 0xfbe3b0a2ad85c960),
    ("hashing", 1, 10000, 0x6279f60e47e22213),
    ("hashing", 3, 10000, 0xde873d925b7c5199),
    ("signature", 1, 10000, 0xbc286bddfbf56111),
    ("signature", 3, 10000, 0x7c0854261506718b),
    ("integrated-signature", 1, 10000, 0x0f337a77b5b3451d),
    ("multilevel-signature", 1, 10000, 0xdc423f1395bfa00d),
    ("hybrid", 1, 10000, 0x77040d5ea8f22631),
];

#[test]
fn every_built_program_matches_its_pinned_digest() {
    let mut seen = Vec::new();
    for records in [1, 17, 1_000, 10_000] {
        let dataset = DatasetBuilder::new(records, 0xB11D).build().unwrap();
        for kind in SchemeKind::ALL {
            for disks in [None, Some(DiskConfig::new(3))] {
                let Some(digest) = kind.visit(disks, Digest { dataset: &dataset }) else {
                    continue;
                };
                let d = disks.map_or(1, |d| d.disks());
                seen.push((kind.cli_name(), d, records, digest));
            }
        }
    }
    let listing: String = seen
        .iter()
        .map(|(k, d, n, h)| format!("    ({k:?}, {d}, {n}, {h:#018x}),\n"))
        .collect();
    assert_eq!(seen.len(), 4 * 12, "8 kinds and 4 disk layouts per size");
    assert!(
        seen.iter().copied().eq(PINNED.iter().copied()),
        "built programs differ from the pinned digests; now:\n{listing}"
    );
}
