//! Fig. 4 — access time and tuning time vs. number of data records, for
//! flat broadcast, distributed indexing, simple hashing and signature
//! indexing; simulated "(S)" series next to analytical "(A)" series.

use bda_analytical as model;
use bda_core::Params;
use bda_datagen::DatasetBuilder;
use bda_signature::SigParams;

use crate::experiments::Outcome;
use crate::sweep::{run_cells_with_progress, CellSpec};
use crate::table::{write_csvs, Table};
use crate::{Cli, SchemeKind};

/// Record counts swept on the x axis (the paper's 7000–34000 range).
pub const SIZES: [usize; 7] = [7_000, 10_000, 14_000, 19_000, 24_000, 29_000, 34_000];

const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Flat,
    SchemeKind::Distributed,
    SchemeKind::Hashing,
    SchemeKind::Signature,
];

/// Run the Fig. 4 sweep and print both panels. A failed cell aborts the sweep
/// before anything is printed and is returned, as is a failed CSV write.
pub fn run(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let cfg = cli.sim_config();
    let sizes: &[usize] = if cli.quick { &SIZES[..3] } else { &SIZES };

    // Datasets first (shared across schemes at each size).
    let datasets: Vec<_> = sizes
        .iter()
        .map(|&nr| {
            DatasetBuilder::new(nr, cli.seed ^ nr as u64)
                .build()
                .unwrap()
        })
        .collect();

    let specs: Vec<CellSpec> = datasets
        .iter()
        .flat_map(|ds| {
            SCHEMES.iter().map(move |&kind| CellSpec {
                kind,
                dataset: ds,
                absent_pool: &[],
                params,
                availability: 1.0,
                config: cfg,
            })
        })
        .collect();
    cli.progress().emit(
        bda_obs::Severity::Progress,
        &format!("fig4: sweeping {} cells", specs.len()),
    );
    let reports = run_cells_with_progress(&specs, cli.progress()).map_err(|err| {
        cli.progress().emit(
            bda_obs::Severity::Error,
            &format!("fig4 sweep aborted: {err}"),
        );
        err
    })?;

    // Analytical counterparts. Signature strings: datagen records carry
    // 4 attributes with the key as attribute 0 → 4 distinct strings.
    let sig = SigParams::default();
    /// (flat At, flat Tt, dist At, dist Tt, hash At, hash Tt, sig At, sig Tt)
    type AnalyticRow = (f64, f64, f64, f64, f64, f64, f64, f64);
    let analytic: Vec<AnalyticRow> = sizes
        .iter()
        .map(|&nr| {
            let f = model::flat(&params, nr);
            let d = model::distributed(&params, nr, None);
            let h = model::hash_poisson(&params, nr, 1.0);
            let s = model::signature(&params, &sig, 4, nr);
            (
                f.access, f.tuning, d.access, d.tuning, h.access, h.tuning, s.access, s.tuning,
            )
        })
        .collect();

    let mut at = Table::new(&[
        "records",
        "flat(S)",
        "flat(A)",
        "distributed(S)",
        "distributed(A)",
        "hashing(S)",
        "hashing(A)",
        "signature(S)",
        "signature(A)",
    ]);
    let mut tt = Table::new(&[
        "records",
        "flat(S)",
        "flat(A)",
        "distributed(S)",
        "distributed(A)",
        "hashing(S)",
        "hashing(A)",
        "signature(S)",
        "signature(A)",
    ]);
    for (i, &nr) in sizes.iter().enumerate() {
        let row = &reports[i * SCHEMES.len()..(i + 1) * SCHEMES.len()];
        let a = analytic[i];
        at.row(vec![
            nr.to_string(),
            format!("{:.0}", row[0].mean_access()),
            format!("{:.0}", a.0),
            format!("{:.0}", row[1].mean_access()),
            format!("{:.0}", a.2),
            format!("{:.0}", row[2].mean_access()),
            format!("{:.0}", a.4),
            format!("{:.0}", row[3].mean_access()),
            format!("{:.0}", a.6),
        ]);
        tt.row(vec![
            nr.to_string(),
            format!("{:.0}", row[0].mean_tuning()),
            format!("{:.0}", a.1),
            format!("{:.0}", row[1].mean_tuning()),
            format!("{:.0}", a.3),
            format!("{:.0}", row[2].mean_tuning()),
            format!("{:.0}", a.5),
            format!("{:.0}", row[3].mean_tuning()),
            format!("{:.0}", a.7),
        ]);
    }

    println!("# Fig. 4(a) — access time (bytes) vs number of records\n");
    print!("{}", at.render());
    println!("\n# Fig. 4(b) — tuning time (bytes) vs number of records\n");
    print!("{}", tt.render());
    write_csvs(
        cli.progress(),
        &[
            (&at, "fig4a_access_vs_records"),
            (&tt, "fig4b_tuning_vs_records"),
        ],
    )?;
    Ok(())
}
