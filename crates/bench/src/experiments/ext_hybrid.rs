//! Extension experiment: the hybrid index-tree + signature scheme (the
//! direction of the paper's references \[3\]/\[4\]) against its two parents.
//!
//! Three query mixes over the same dataset:
//!
//! * **key lookups** — hybrid vs. pure distributed indexing: the hybrid
//!   pays the signature buckets' cycle inflation on access time but keeps
//!   the `O(k)`-probe tuning;
//! * **attribute queries** — hybrid vs. pure simple-signature indexing:
//!   both scan one signature per record; the hybrid also hops over its
//!   index segments;
//! * pure schemes answering the *other* query type: distributed indexing
//!   cannot answer attribute queries at all, and the signature scheme
//!   answers key lookups only by scanning — the gap the hybrid closes.

use bda_btree::DistributedScheme;
use bda_core::{DynSystem, Params, Scheme, System};
use bda_datagen::{DatasetBuilder, Prng};
use bda_hybrid::HybridScheme;
use bda_signature::SimpleSignatureScheme;

use crate::experiments::Outcome;
use crate::table::{write_csvs, Table};
use crate::Cli;

/// Run the hybrid-scheme comparison.
pub fn run(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let nr = if cli.quick { 1_000 } else { 5_000 };
    let dataset = DatasetBuilder::new(nr, cli.seed).build().unwrap();
    let queries = if cli.quick { 2_000 } else { 10_000 };

    let dist = DistributedScheme::new().build(&dataset, &params).unwrap();
    let sig = SimpleSignatureScheme::new()
        .build(&dataset, &params)
        .unwrap();
    let hybrid = HybridScheme::new().build(&dataset, &params).unwrap();

    let mut rng = Prng::new(cli.seed ^ 0x4B1D);
    let mut key_cases = Vec::with_capacity(queries);
    let mut attr_cases = Vec::with_capacity(queries);
    for _ in 0..queries {
        let rec = dataset.record(rng.below(nr as u64) as usize);
        key_cases.push((rec.key, rng.below(1 << 40)));
        // Attribute 1 is unique per record in datagen's layout; querying it
        // exercises the selective path.
        attr_cases.push((rec.attrs[1], rng.below(1 << 40)));
    }

    let avg = |f: &mut dyn FnMut(usize) -> (u64, u64)| -> (f64, f64) {
        let mut at = 0u64;
        let mut tt = 0u64;
        for i in 0..queries {
            let (a, t) = f(i);
            at += a;
            tt += t;
        }
        (at as f64 / queries as f64, tt as f64 / queries as f64)
    };

    let mut t = Table::new(&["query type", "scheme", "access(B)", "tuning(B)"]);
    // Key lookups.
    let (a, tu) = avg(&mut |i| {
        let (k, t0) = key_cases[i];
        let o = DynSystem::probe(&dist, k, t0);
        assert!(o.found && !o.aborted);
        (o.access, o.tuning)
    });
    t.row(vec![
        "key".into(),
        "distributed".into(),
        format!("{a:.0}"),
        format!("{tu:.0}"),
    ]);
    let (a, tu) = avg(&mut |i| {
        let (k, t0) = key_cases[i];
        let o = DynSystem::probe(&hybrid, k, t0);
        assert!(o.found && !o.aborted);
        (o.access, o.tuning)
    });
    t.row(vec![
        "key".into(),
        "hybrid".into(),
        format!("{a:.0}"),
        format!("{tu:.0}"),
    ]);
    let (a, tu) = avg(&mut |i| {
        let (k, t0) = key_cases[i];
        let o = DynSystem::probe(&sig, k, t0);
        assert!(o.found && !o.aborted);
        (o.access, o.tuning)
    });
    t.row(vec![
        "key".into(),
        "signature".into(),
        format!("{a:.0}"),
        format!("{tu:.0}"),
    ]);

    // Attribute queries (distributed indexing cannot answer these).
    let (a, tu) = avg(&mut |i| {
        let (v, t0) = attr_cases[i];
        let o = hybrid.probe_attr(v, t0);
        assert!(o.found && !o.aborted);
        (o.access, o.tuning)
    });
    t.row(vec![
        "attribute".into(),
        "hybrid".into(),
        format!("{a:.0}"),
        format!("{tu:.0}"),
    ]);
    let (a, tu) = avg(&mut |i| {
        let (v, t0) = attr_cases[i];
        let m = sig.attr_query(v);
        let o = bda_core::machine::run_machine(sig.channel(), m, t0);
        assert!(o.found && !o.aborted);
        (o.access, o.tuning)
    });
    t.row(vec![
        "attribute".into(),
        "signature".into(),
        format!("{a:.0}"),
        format!("{tu:.0}"),
    ]);
    t.row(vec![
        "attribute".into(),
        "distributed".into(),
        "unanswerable".into(),
        "unanswerable".into(),
    ]);

    println!("# Extension — hybrid tree+signature scheme (Nr = {nr}, {queries} queries/cell)\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ext_hybrid")])?;
    Ok(())
}
