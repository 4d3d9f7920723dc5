//! Fig. 6 — access time and tuning time vs. record/key ratio (5–100) at
//! 100 % availability.
//!
//! The ratio is swept by shrinking the key while the record stays at 500
//! bytes (ratio 5 → 100-byte keys, ratio 100 → 5-byte keys), exactly the
//! §5.2 setup. B+-tree fanout, signature length and hashing control parts
//! all follow from [`bda_core::Params`], so the ratio's strong effect on
//! `(1,m)`/distributed — and weak effect on the others — emerges naturally.

use bda_core::Params;
use bda_datagen::DatasetBuilder;

use crate::experiments::Outcome;
use crate::sweep::{run_cells_with_progress, CellSpec};
use crate::table::{write_csvs, Table};
use crate::{Cli, SchemeKind};

/// Number of broadcast records for the ratio sweep.
pub const NUM_RECORDS: usize = 10_000;

/// Record/key ratios swept on the x axis.
pub const RATIOS: [u32; 6] = [5, 10, 20, 25, 50, 100];

/// Run the Fig. 6 sweep and print both panels. A failed cell aborts the sweep
/// before anything is printed and is returned, as is a failed CSV write.
pub fn run(cli: &Cli) -> Outcome {
    let cfg = cli.sim_config();
    let nr = if cli.quick { 2_000 } else { NUM_RECORDS };
    let dataset = DatasetBuilder::new(nr, cli.seed).build().unwrap();

    let schemes = SchemeKind::PAPER;
    let specs: Vec<CellSpec> = RATIOS
        .iter()
        .flat_map(|&ratio| {
            let dataset = &dataset;
            let params = Params::with_record_key_ratio(ratio).unwrap();
            schemes.iter().map(move |&kind| CellSpec {
                kind,
                dataset,
                absent_pool: &[],
                params,
                availability: 1.0,
                config: cfg,
            })
        })
        .collect();
    cli.progress().emit(
        bda_obs::Severity::Progress,
        &format!("fig6: sweeping {} cells", specs.len()),
    );
    let reports = run_cells_with_progress(&specs, cli.progress()).map_err(|err| {
        cli.progress().emit(
            bda_obs::Severity::Error,
            &format!("fig6 sweep aborted: {err}"),
        );
        err
    })?;

    let headers: Vec<&str> = std::iter::once("record/key")
        .chain(schemes.iter().map(|s| s.name()))
        .collect();
    let mut at = Table::new(&headers);
    let mut tt = Table::new(&headers);
    for (i, &ratio) in RATIOS.iter().enumerate() {
        let row = &reports[i * schemes.len()..(i + 1) * schemes.len()];
        at.row(
            std::iter::once(ratio.to_string())
                .chain(row.iter().map(|r| format!("{:.0}", r.mean_access())))
                .collect(),
        );
        tt.row(
            std::iter::once(ratio.to_string())
                .chain(row.iter().map(|r| format!("{:.0}", r.mean_tuning())))
                .collect(),
        );
    }

    println!("# Fig. 6(a) — access time (bytes) vs record/key ratio (Nr = {nr})\n");
    print!("{}", at.render());
    println!(
        "\n# Fig. 6(b) — tuning time (bytes) vs record/key ratio (Nr = {nr})\n  \
         (the paper omits flat broadcast here)\n"
    );
    print!("{}", tt.render());
    write_csvs(
        cli.progress(),
        &[
            (&at, "fig6a_access_vs_ratio"),
            (&tt, "fig6b_tuning_vs_ratio"),
        ],
    )?;
    Ok(())
}
