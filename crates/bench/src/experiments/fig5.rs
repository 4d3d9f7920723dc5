//! Fig. 5 — access time and tuning time vs. data availability (0–100 %)
//! for plain broadcast, signature, `(1,m)`, distributed and hashing.
//!
//! The paper does not state the record count used; we fix `Nr = 10 000`
//! (documented in EXPERIMENTS.md), which reproduces the figure's shapes.

use bda_analytical::availability as model;
use bda_core::{Params, Scheme};
use bda_datagen::DatasetBuilder;
use bda_signature::SigParams;

use crate::experiments::Outcome;
use crate::sweep::{run_cells_with_progress, CellSpec};
use crate::table::{write_csvs, Table};
use crate::{Cli, SchemeKind};

/// Number of broadcast records for the availability sweep.
pub const NUM_RECORDS: usize = 10_000;

/// Availability sweep points (percent).
pub const AVAILABILITY: [u32; 6] = [0, 20, 40, 60, 80, 100];

/// Run the Fig. 5 sweep and print both panels. A failed cell aborts the sweep
/// before anything is printed and is returned, as is a failed CSV write.
pub fn run(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let cfg = cli.sim_config();
    let nr = if cli.quick { 2_000 } else { NUM_RECORDS };
    let (dataset, pool) = DatasetBuilder::new(nr, cli.seed)
        .build_with_absent_pool(nr)
        .unwrap();

    let schemes = SchemeKind::PAPER;
    let specs: Vec<CellSpec> = AVAILABILITY
        .iter()
        .flat_map(|&pct| {
            let dataset = &dataset;
            let pool = &pool;
            schemes.iter().map(move |&kind| CellSpec {
                kind,
                dataset,
                absent_pool: pool,
                params,
                availability: f64::from(pct) / 100.0,
                config: cfg,
            })
        })
        .collect();
    cli.progress().emit(
        bda_obs::Severity::Progress,
        &format!("fig5: sweeping {} cells", specs.len()),
    );
    let reports = run_cells_with_progress(&specs, cli.progress()).map_err(|err| {
        cli.progress().emit(
            bda_obs::Severity::Error,
            &format!("fig5 sweep aborted: {err}"),
        );
        err
    })?;

    let headers: Vec<&str> = std::iter::once("availability%")
        .chain(schemes.iter().map(|s| s.name()))
        .collect();
    let mut at = Table::new(&headers);
    let mut tt = Table::new(&headers);
    for (i, &pct) in AVAILABILITY.iter().enumerate() {
        let row = &reports[i * schemes.len()..(i + 1) * schemes.len()];
        at.row(
            std::iter::once(pct.to_string())
                .chain(row.iter().map(|r| format!("{:.0}", r.mean_access())))
                .collect(),
        );
        tt.row(
            std::iter::once(pct.to_string())
                .chain(row.iter().map(|r| format!("{:.0}", r.mean_tuning())))
                .collect(),
        );
    }

    println!("# Fig. 5(a) — access time (bytes) vs data availability (Nr = {nr})\n");
    print!("{}", at.render());

    // Analytical overlay (extension models; the paper's Fig. 5 is purely
    // empirical). Hashing uses the realized layout statistics.
    let hash_sys = bda_hash::HashScheme::new()
        .build(&dataset, &params)
        .unwrap();
    let mut ma = Table::new(&headers);
    let mut mt = Table::new(&headers);
    for &pct in &AVAILABILITY {
        let a = f64::from(pct) / 100.0;
        let models = [
            model::flat(&params, nr, a),
            model::one_m(&params, nr, None, a),
            model::distributed(&params, nr, None, a),
            model::hash(&params, nr, hash_sys.na(), hash_sys.num_collisions(), a),
            model::signature(&params, &SigParams::default(), 4, nr, a),
        ];
        ma.row(
            std::iter::once(pct.to_string())
                .chain(models.iter().map(|m| format!("{:.0}", m.access)))
                .collect(),
        );
        mt.row(
            std::iter::once(pct.to_string())
                .chain(models.iter().map(|m| format!("{:.0}", m.tuning)))
                .collect(),
        );
    }
    println!("\n  analytical (extension availability models):\n");
    print!("{}", ma.render());
    println!(
        "\n# Fig. 5(b) — tuning time (bytes) vs data availability (Nr = {nr})\n  \
         (the paper omits flat broadcast here — \"much larger than all other schemes\")\n"
    );
    print!("{}", tt.render());
    println!("\n  analytical (extension availability models):\n");
    print!("{}", mt.render());
    write_csvs(
        cli.progress(),
        &[
            (&at, "fig5a_access_vs_availability"),
            (&tt, "fig5b_tuning_vs_availability"),
            (&ma, "fig5a_access_vs_availability_analytical"),
            (&mt, "fig5b_tuning_vs_availability_analytical"),
        ],
    )?;
    Ok(())
}
