//! Ablation studies for the design knobs DESIGN.md calls out:
//! replication depth `r`, segmentation `m`, signature length, and hash
//! quality / load factor. These go beyond the paper's figures; they
//! substantiate its §2 tradeoff discussions.

use bda_btree::optimal::{optimal_m, optimal_r};
use bda_btree::{DistributedScheme, OneMScheme};
use bda_core::{DynSystem, Params, Scheme};
use bda_datagen::{DatasetBuilder, QueryWorkload};
use bda_hash::{HashFn, HashScheme};
use bda_signature::{SigParams, SimpleSignatureScheme};
use bda_sim::Simulator;

use crate::experiments::Outcome;
use crate::table::{write_csvs, Table};
use crate::Cli;

fn nr(cli: &Cli) -> usize {
    if cli.quick {
        2_000
    } else {
        10_000
    }
}

fn simulate(cli: &Cli, system: &dyn DynSystem, dataset: &bda_core::Dataset) -> (f64, f64) {
    let workload = QueryWorkload::uniform(dataset, cli.seed ^ 0x51);
    let mut sim = Simulator::new(system, workload, cli.sim_config());
    let r = sim.run();
    assert_eq!(r.aborted, 0);
    (r.mean_access(), r.mean_tuning())
}

/// ◆ Distributed indexing: sweep the number of replicated levels `r`.
pub fn ablation_r(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(nr(cli), cli.seed).build().unwrap();
    let fanout = params.index_entries_per_bucket();
    let probe = DistributedScheme::new().build(&dataset, &params).unwrap();
    let k = probe.num_levels();
    let r_star = optimal_r(fanout, k, dataset.len());

    let mut t = Table::new(&["r", "access(S)", "tuning(S)", "cycle buckets", "note"]);
    for r in 0..k {
        let sys = DistributedScheme::with_r(r)
            .build(&dataset, &params)
            .unwrap();
        let (at, tt) = simulate(cli, &sys, &dataset);
        t.row(vec![
            r.to_string(),
            format!("{at:.0}"),
            format!("{tt:.0}"),
            bda_core::DynSystem::num_buckets(&sys).to_string(),
            if r == r_star {
                "← optimal (paper's choice)".into()
            } else {
                String::new()
            },
        ]);
    }
    println!("# Ablation — distributed indexing replication depth r (k = {k})\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ablation_r")])?;
    Ok(())
}

/// ◆ `(1,m)` indexing: sweep the number of data segments `m`.
pub fn ablation_m(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(nr(cli), cli.seed).build().unwrap();
    let probe = OneMScheme::new().build(&dataset, &params).unwrap();
    let m_star = optimal_m(dataset.len(), probe.index_buckets_per_copy());

    let mut sweep: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64];
    if !sweep.contains(&m_star) {
        sweep.push(m_star);
        sweep.sort_unstable();
    }
    let mut t = Table::new(&["m", "access(S)", "tuning(S)", "cycle buckets", "note"]);
    for m in sweep {
        let sys = OneMScheme::with_m(m).build(&dataset, &params).unwrap();
        let (at, tt) = simulate(cli, &sys, &dataset);
        t.row(vec![
            m.to_string(),
            format!("{at:.0}"),
            format!("{tt:.0}"),
            bda_core::DynSystem::num_buckets(&sys).to_string(),
            if m == m_star {
                "← optimal m* = √(Nr/I)".into()
            } else {
                String::new()
            },
        ]);
    }
    println!("# Ablation — (1,m) indexing segment count m (m* = {m_star})\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ablation_m")])?;
    Ok(())
}

/// ◆ Signature length: the §2.3 access-vs-tuning tradeoff.
pub fn ablation_siglen(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(nr(cli), cli.seed).build().unwrap();
    let mut t = Table::new(&[
        "sig bytes",
        "access(S)",
        "tuning(S)",
        "false drops/query",
        "p_fd model",
    ]);
    for sig_bytes in [1u32, 2, 4, 8, 16, 32, 64] {
        let sigp = SigParams {
            sig_bytes,
            ..SigParams::default()
        };
        let sys = SimpleSignatureScheme::with_params(sigp)
            .build(&dataset, &params)
            .unwrap();
        let workload = QueryWorkload::uniform(&dataset, cli.seed ^ 0x51);
        let mut sim = Simulator::new(&sys, workload, cli.sim_config());
        let r = sim.run();
        assert_eq!(r.aborted, 0);
        t.row(vec![
            sig_bytes.to_string(),
            format!("{:.0}", r.mean_access()),
            format!("{:.0}", r.mean_tuning()),
            format!("{:.2}", r.false_drops as f64 / r.requests as f64),
            format!("{:.5}", bda_analytical::false_drop_probability(&sigp, 4)),
        ]);
    }
    println!("# Ablation — signature length (shorter: better access, worse tuning)\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ablation_siglen")])?;
    Ok(())
}

/// ◆ Hash quality and load factor: the §4.2 remark that tuning time
/// depends on "how good the hashing function is".
pub fn ablation_hash(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(nr(cli), cli.seed).build().unwrap();
    let mut t = Table::new(&[
        "hash fn",
        "load",
        "access(S)",
        "tuning(S)",
        "collisions",
        "empty slots",
    ]);
    let hash_fns = [
        HashFn::Mixed,
        HashFn::Modulo,
        HashFn::Clustered { factor: 4 },
        HashFn::Clustered { factor: 16 },
    ];
    for hf in hash_fns {
        for load in [1.0f64, 0.5] {
            let sys = HashScheme::new()
                .with_hash(hf)
                .with_load_factor(load)
                .build(&dataset, &params)
                .unwrap();
            let (at, tt) = simulate(cli, &sys, &dataset);
            t.row(vec![
                hf.label(),
                format!("{load}"),
                format!("{at:.0}"),
                format!("{tt:.0}"),
                sys.num_collisions().to_string(),
                sys.num_empty().to_string(),
            ]);
        }
    }
    println!("# Ablation — hash-function quality and load factor\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ablation_hash")])?;
    Ok(())
}
