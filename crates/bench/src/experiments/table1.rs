//! Table 1 — simulation settings.

use bda_core::Params;

use crate::experiments::Outcome;
use crate::table::{write_csvs, Table};
use crate::Cli;

/// Print the reproduction's counterpart of Table 1.
pub fn run(cli: &Cli) -> Outcome {
    let params = Params::paper();
    let cfg = cli.sim_config();
    let mut t = Table::new(&["setting", "paper", "this reproduction"]);
    t.row(vec![
        "data type".into(),
        "text (dictionary)".into(),
        "synthetic dictionary (bda-datagen)".into(),
    ]);
    t.row(vec![
        "number of records".into(),
        "7000-34000".into(),
        "7000-34000 (fig4 sweep)".into(),
    ]);
    t.row(vec![
        "record size".into(),
        "500 bytes".into(),
        format!("{} bytes", params.record_size),
    ]);
    t.row(vec![
        "key size".into(),
        "25 bytes".into(),
        format!("{} bytes", params.key_size),
    ]);
    t.row(vec![
        "number of requests".into(),
        "> 50000".into(),
        "accuracy-controlled (see below)".into(),
    ]);
    t.row(vec![
        "confidence level".into(),
        "0.99".into(),
        format!("{}", cfg.confidence),
    ]);
    t.row(vec![
        "confidence accuracy".into(),
        "0.01".into(),
        format!("{}", cfg.accuracy),
    ]);
    t.row(vec![
        "request interval".into(),
        "exponential distribution".into(),
        format!("exponential, mean {} bytes", cfg.mean_interarrival),
    ]);
    t.row(vec![
        "requests per round".into(),
        "500".into(),
        format!("{}", cfg.round_requests),
    ]);
    println!("# Table 1 — simulation settings\n");
    print!("{}", t.render());
    write_csvs(cli.progress(), &[(&t, "table1")])?;
    Ok(())
}
