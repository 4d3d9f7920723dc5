//! Property tests for superimposed coding and the three signature schemes.

use bda_core::{Dataset, DynSystem, Key, Params, Record, Scheme};
use bda_signature::{
    IntegratedSignatureScheme, MultiLevelSignatureScheme, SigParams, SigTable,
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

    /// `SigTable::first_match` over a contiguous row range is the first
    /// row `SigTable::matches` accepts, and every row's `matches` (and
    /// `first_match` over the row alone) is `Signature::matches` on the
    /// row's own signature — at 1-, 8-, 16- and 24-byte signatures (8 to
    /// 192 bit slices), over tables of up to four 64-row words and empty,
    /// partial and word-crossing ranges, with queries drawn both from a
    /// row's own key (a guaranteed match) and at random.
    #[test]
    fn sig_table_first_match_agrees_with_matches(
        width in 0usize..4,
        bits_per_attr in 1u32..6,
        keys in prop::collection::vec(any::<u64>(), 0..201),
        query in any::<u64>(),
        own in any::<proptest::sample::Index>(),
        use_own in any::<bool>(),
        from in 0usize..210,
        len in 0usize..210,
    ) {
        let sig = SigParams { sig_bytes: [1, 8, 16, 24][width], bits_per_attr };
        let sigs: Vec<_> = keys.iter().map(|&k| sig.record_signature(Key(k), &[k ^ 7])).collect();
        let table = SigTable::build(&sigs);
        let q = if use_own && !keys.is_empty() {
            sig.query_signature(Key(keys[own.index(keys.len())]))
        } else {
            sig.query_signature(Key(query))
        };
        let lo = from.min(keys.len());
        let hi = (from + len).min(keys.len());
        let expect = (lo..hi).find(|&i| table.matches(i, &q));
        prop_assert_eq!(table.first_match(lo..hi, &q), expect);
        prop_assert_eq!(expect, (lo..hi).find(|&i| sigs[i].matches(&q)));
        prop_assert_eq!(table.len(), keys.len());
        for (i, row) in sigs.iter().enumerate() {
            prop_assert_eq!(table.matches(i, &q), row.matches(&q), "row {}", i);
            // A one-row range ends inside its word: rows after it must not
            // answer for it.
            prop_assert_eq!(table.first_match(i..i + 1, &q), row.matches(&q).then_some(i));
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
