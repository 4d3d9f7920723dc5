//! Property tests for superimposed coding and the three signature schemes.

use bda_core::{Dataset, DynSystem, Key, Params, Record, Scheme};
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SigParams, SigTable, Signature,
    SimpleSignatureScheme,
};
use proptest::prelude::*;

fn arb_records() -> impl Strategy<Value = Dataset> {
    prop::collection::btree_map(
        0u64..1 << 48,
        prop::collection::vec(any::<u64>(), 0..5),
        1..120,
    )
    .prop_map(|m| {
        Dataset::new(
            m.into_iter()
                .map(|(k, attrs)| Record::new(Key(k), attrs))
                .collect(),
        )
        .unwrap()
    })
}

fn arb_sig() -> impl Strategy<Value = SigParams> {
    (1u32..48, 1u32..8).prop_map(|(sig_bytes, bits_per_attr)| SigParams {
        sig_bytes,
        bits_per_attr,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SigTable::first_match` over a row range is the first row whose own
    /// signature, as the build computed it, `Signature::matches` the query,
    /// tested one row at a time; so is `SigTable::matches` on every row.
    /// Signatures of 0 (a zero-width table), 1, 8, 16, 17, 24 and 64
    /// bytes (no slices up to 512, inline and boxed) with 1, 4, 16 and 32
    /// bits per attribute; tables of 1 to 300 rows (up to five 64-row
    /// words); queries from a row's own key (a guaranteed match), at
    /// random and all zero. Each case checks a random range, the empty
    /// range, every one-row range, the last row, and ranges that start,
    /// end or cross each 64-row boundary, so either end's mask being one
    /// row off shows.
    #[test]
    fn sig_table_first_match_agrees_with_matches(
        width in 0usize..7,
        weight in 0usize..4,
        keys in prop::collection::vec(any::<u64>(), 1..301),
        query in any::<u64>(),
        own in any::<proptest::sample::Index>(),
        kind in 0u8..3,
        from in 0usize..310,
        len in 0usize..310,
    ) {
        let sig = SigParams {
            sig_bytes: [0, 1, 8, 16, 17, 24, 64][width],
            bits_per_attr: [1, 4, 16, 32][weight],
        };
        let sigs: Vec<_> = keys.iter().map(|&k| sig.record_signature(Key(k), &[k ^ 7])).collect();
        let table = SigTable::build(&sigs);
        let q = match kind {
            0 => sig.query_signature(Key(keys[own.index(keys.len())])),
            1 => sig.query_signature(Key(query)),
            _ => Signature::zero(sig.bits()),
        };
        let n = keys.len();
        prop_assert_eq!(table.len(), n);
        let mut ranges = vec![from.min(n)..(from + len).min(n), n - 1..n, 0..n, n..n];
        for b in (0..=n).step_by(64) {
            let (lo, hi) = (b.saturating_sub(1), (b + 1).min(n));
            ranges.extend([b..n, 0..b, b..b, lo..hi, lo..b, b..hi, b..(b + 64).min(n)]);
            ranges.extend([b.saturating_sub(5)..(b + 70).min(n), (b + 63).min(n)..n]);
        }
        ranges.extend((0..n).map(|i| i..i + 1));
        for rows in ranges {
            let expect = rows.clone().find(|&i| sigs[i].matches(&q));
            prop_assert_eq!(table.first_match(rows.clone(), &q), expect, "rows {:?}", rows);
        }
        for (i, row) in sigs.iter().enumerate() {
            prop_assert_eq!(table.matches(i, &q), row.matches(&q), "row {}", i);
        }
    }

    /// Superimposition is monotone: a signature always matches any subset
    /// of the strings it superimposes — hence no false negatives ever.
    #[test]
    fn superimposition_is_monotone(values in prop::collection::vec(any::<u64>(), 1..10), sig in arb_sig()) {
        let mut combined = sig.attr_signature(values[0]);
        for &v in &values[1..] {
            combined.superimpose(&sig.attr_signature(v));
        }
        for &v in &values {
            prop_assert!(combined.matches(&sig.attr_signature(v)));
        }
        // Weight is bounded by the sum of the parts.
        prop_assert!(combined.weight() <= values.len() as u32 * sig.bits_per_attr.min(sig.bits()));
    }

    /// All three schemes are exact for key queries, under arbitrary
    /// signature geometry (tiny signatures only cost false drops).
    #[test]
    fn schemes_are_exact(
        ds in arb_records(),
        sig in arb_sig(),
        group in 1u32..12,
        t in 0u64..1 << 40,
        idx in any::<proptest::sample::Index>(),
        probe_key in 0u64..1 << 48,
    ) {
        let params = Params::paper();
        let systems: Vec<Box<dyn DynSystem>> = vec![
            Box::new(SimpleSignatureScheme::with_params(sig).build(&ds, &params).unwrap()),
            Box::new(IntegratedSignatureScheme::new(group).with_params(sig).build(&ds, &params).unwrap()),
            Box::new(MultiLevelSignatureScheme::new(group).with_params(sig).build(&ds, &params).unwrap()),
        ];
        let present = ds.record(idx.index(ds.len())).key;
        for sys in &systems {
            let hit = sys.probe(present, t);
            prop_assert!(hit.found, "{} missed {present}", sys.scheme_name());
            prop_assert!(!hit.aborted);
            let out = sys.probe(Key(probe_key), t);
            prop_assert_eq!(out.found, ds.contains(Key(probe_key)), "{}", sys.scheme_name());
            prop_assert!(!out.aborted);
        }
    }

    /// Attribute queries on the simple scheme: found iff some record
    /// carries the value (as key or attribute).
    #[test]
    fn attribute_queries_are_exact(
        ds in arb_records(),
        sig in arb_sig(),
        t in 0u64..1 << 40,
        idx in any::<proptest::sample::Index>(),
        phantom in any::<u64>(),
    ) {
        let params = Params::paper();
        let sys = SimpleSignatureScheme::with_params(sig).build(&ds, &params).unwrap();
        let run = |value: u64| {
            bda_core::machine::run_machine(
                bda_core::System::channel(&sys),
                sys.attr_query(value),
                t,
            )
        };
        let rec = ds.record(idx.index(ds.len()));
        for &attr in rec.attrs.iter().chain([rec.key.value()].iter()) {
            let out = run(attr);
            prop_assert!(out.found, "attribute {attr} not found");
            prop_assert!(!out.aborted);
        }
        let present = ds
            .records()
            .iter()
            .any(|r| r.key.value() == phantom || r.attrs.contains(&phantom));
        let out = run(phantom);
        prop_assert_eq!(out.found, present);
        prop_assert!(!out.aborted);
    }
}
