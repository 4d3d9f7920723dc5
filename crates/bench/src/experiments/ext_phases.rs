//! Extension experiment: phase-attributed tuning time.
//!
//! The paper reports tuning time as a single number per scheme. The
//! observability layer splits it by walk phase — initial probe, index
//! traversal, data read — and separately reports how much of the *access*
//! time each scheme spends dozing (which costs air time but zero battery).
//! The resulting table explains *why* the tuning numbers differ: indexed
//! schemes trade a little index traversal for a lot of doze time, the
//! flat broadcast burns its entire access time listening, and signature
//! schemes sit in between with filter reads dominating.
//!
//! Percentages use the exact span accounting (the per-phase ticks sum to
//! the measured totals on every cell of the conformance matrix), so rows
//! add to 100.

use bda_core::Params;
use bda_datagen::{DatasetBuilder, Popularity, QueryWorkload};
use bda_obs::{MetricsHub, Phase, Severity};
use bda_sim::Simulator;

use crate::experiments::Outcome;
use crate::table::{write_csvs, Table};
use crate::{Cli, SchemeKind};

/// Run one observed simulation per scheme and return `(scheme, hub)`.
pub fn collect(cli: &Cli, nr: usize) -> Vec<(&'static str, MetricsHub)> {
    let params = Params::paper();
    let dataset = DatasetBuilder::new(nr, cli.seed).build().unwrap();
    let cfg = cli.sim_config();
    let mut out = Vec::new();
    for kind in SchemeKind::ALL {
        let system = match kind.build(&dataset, &params) {
            Ok(s) => s,
            Err(e) => {
                cli.progress().emit(
                    Severity::Error,
                    &format!("{}: build failed: {e}", kind.name()),
                );
                continue;
            }
        };
        let workload = QueryWorkload::new(
            &dataset,
            Vec::new(),
            1.0,
            Popularity::Uniform,
            cli.seed ^ 0xABCD,
        );
        let (report, hub) = Simulator::new(system.as_ref(), workload, cfg).run_observed();
        cli.progress().emit(
            Severity::Progress,
            &format!(
                "{}: {} requests observed, Tt mean {:.0}",
                kind.name(),
                report.requests,
                report.mean_tuning()
            ),
        );
        out.push((kind.name(), hub));
    }
    out
}

/// Run the phase-breakdown comparison.
pub fn run(cli: &Cli) -> Outcome {
    let nr = if cli.quick { 2_000 } else { 10_000 };
    let hubs = collect(cli, nr);

    let mut t = Table::new(&[
        "scheme",
        "Tt mean",
        "probe%",
        "index%",
        "data%",
        "doze(At%)",
    ]);
    for (name, hub) in &hubs {
        let tuning = hub.spans.total_tuning() as f64;
        let access = hub.spans.total_access() as f64;
        let share = |p: Phase| {
            if tuning == 0.0 {
                0.0
            } else {
                100.0 * hub.spans.get(p).tuning as f64 / tuning
            }
        };
        let doze_share = if access == 0.0 {
            0.0
        } else {
            100.0 * hub.spans.get(Phase::Doze).access as f64 / access
        };
        t.row(vec![
            (*name).to_string(),
            format!("{:.0}", tuning / hub.completed.max(1) as f64),
            format!("{:.1}", share(Phase::InitialProbe)),
            format!("{:.1}", share(Phase::IndexTraversal)),
            format!("{:.1}", share(Phase::DataRead)),
            format!("{doze_share:.1}"),
        ]);
    }

    println!("# Extension — tuning time by walk phase (Nr = {nr}, 100% availability)\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "ext_phases")])?;
    Ok(())
}
