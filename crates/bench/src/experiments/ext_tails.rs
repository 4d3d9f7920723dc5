//! Extension experiment: tail access latency.
//!
//! The paper reports mean access times; deployed broadcast systems also
//! care about the *tail* — a client that just missed its bucket waits for
//! the next cycle, which shows up at high percentiles. This sweep reports
//! p50 / p95 / p99 / max alongside the mean for every scheme, from the
//! testbed's streaming histogram.

use bda_core::Params;
use bda_datagen::DatasetBuilder;

use crate::experiments::Outcome;
use crate::sweep::{run_cells_with_progress, CellSpec};
use crate::table::{write_csvs, Table};
use crate::{Cli, SchemeKind};

/// Run the tail-latency comparison. A failed cell aborts the sweep
/// before anything is printed and is returned, as is a failed CSV write.
pub fn run(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let nr = if cli.quick { 2_000 } else { 10_000 };
    let dataset = DatasetBuilder::new(nr, cli.seed).build().unwrap();

    let schemes = SchemeKind::PAPER;
    let specs: Vec<CellSpec> = schemes
        .iter()
        .map(|&kind| CellSpec {
            kind,
            dataset: &dataset,
            absent_pool: &[],
            params,
            availability: 1.0,
            config: cli.sim_config(),
        })
        .collect();
    cli.progress().emit(
        bda_obs::Severity::Progress,
        &format!("ext_tails: sweeping {} cells", specs.len()),
    );
    let reports = run_cells_with_progress(&specs, cli.progress()).map_err(|err| {
        cli.progress().emit(
            bda_obs::Severity::Error,
            &format!("tails sweep aborted: {err}"),
        );
        err
    })?;

    let mut t = Table::new(&["scheme", "mean", "p50", "p95", "p99", "max", "p99/mean"]);
    for r in &reports {
        let p50 = r.access_quantile(0.50);
        let p95 = r.access_quantile(0.95);
        let p99 = r.access_quantile(0.99);
        t.row(vec![
            r.scheme.to_string(),
            format!("{:.0}", r.mean_access()),
            p50.to_string(),
            p95.to_string(),
            p99.to_string(),
            r.access_hist.max().to_string(),
            format!("{:.2}", p99 as f64 / r.mean_access()),
        ]);
    }

    println!("# Extension — access-time tails (bytes; Nr = {nr}, 100% availability)\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ext_tails")])?;
    Ok(())
}
