//! # bda-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation, plus ablation
//! studies for the design knobs DESIGN.md calls out. Each binary prints an
//! aligned table (the same rows/series the paper plots), writes a CSV
//! under `target/experiments/` (under `$CARGO_TARGET_DIR` when set) for
//! external plotting and prints the path written. A binary exits 1 if a
//! sweep cell fails or a CSV cannot be written; `all` does so after
//! running the rest.
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `table1` | Table 1 (simulation settings) |
//! | `fig4` | Fig. 4(a)+(b): access/tuning vs number of records, simulated and analytical |
//! | `fig5` | Fig. 5(a)+(b): access/tuning vs data availability |
//! | `fig6` | Fig. 6(a)+(b): access/tuning vs record/key ratio |
//! | `ablation_r` | distributed indexing: replicated levels `r` sweep |
//! | `ablation_m` | `(1,m)` indexing: `m` sweep |
//! | `ablation_siglen` | signature length vs access/tuning tradeoff |
//! | `ablation_hash` | hash-function quality and load factor |
//! | `ext_errors` | extension: error-prone channel degradation |
//! | `ext_disks` | extension: broadcast-disk stratification vs workload skew |
//! | `ext_hybrid` | extension: hybrid tree+signature vs its parents |
//! | `ext_tails` | extension: p50/p95/p99 access-time tails |
//! | `ext_phases` | extension: tuning time attributed to walk phases |
//! | `all` | everything above, in sequence |
//!
//! Every binary accepts `--quick` (looser confidence/accuracy; an order of
//! magnitude faster), `--seed <n>`, and `--quiet` (suppress progress
//! narration on stderr; errors still print, tables still go to stdout).
//!
//! [`conformance`] is the driver wall one cell of the conformance matrix
//! runs through; the matrix test (`tests/conformance.rs`) checks a fixed
//! table of cells and the `chaos` soak random ones.

pub mod conformance;
pub mod experiments;
pub mod golden;
pub mod sweep;
pub mod table;

use bda_obs::{ProgressSink, QuietProgress, StderrProgress};

/// The scheme registry lives in `bda-sim`, where the CLI builds through
/// it too.
pub use bda_sim::SchemeKind;
pub use sweep::{run_cell, run_cells, run_cells_with_progress, CellError, CellSpec};
pub use table::Table;

/// The `main` of an experiment binary: parse the common flags, run
/// `experiment` and exit 1 if it failed (its failure is on stderr).
pub fn run_main(experiment: fn(&Cli) -> experiments::Outcome) {
    if experiment(&Cli::parse()).is_err() {
        std::process::exit(1);
    }
}

/// Parse the common CLI flags every experiment binary supports.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Use the quick (loose-accuracy) simulation settings.
    pub quick: bool,
    /// Workload seed.
    pub seed: u64,
    /// Drive cells through the discrete-event engine (concurrent clients)
    /// instead of the direct walker, where the experiment supports it
    /// (`ext_errors`).
    pub engine: bool,
    /// Dynamic broadcast: percent of records updated per cycle
    /// (`ext_errors`; 0 = frozen program).
    pub update_pct: u32,
    /// Suppress progress narration on stderr (errors still print).
    pub quiet: bool,
}

impl Cli {
    /// Parse from `std::env::args`.
    pub fn parse() -> Cli {
        let mut quick = false;
        let mut seed = 0x0EDB_2002u64;
        let mut engine = false;
        let mut update_pct = 0u32;
        let mut quiet = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--engine" => engine = true,
                "--quiet" => quiet = true,
                "--seed" => {
                    seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--seed requires an integer");
                        std::process::exit(2);
                    });
                }
                "--updates" => {
                    update_pct = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--updates requires an integer percent");
                        std::process::exit(2);
                    });
                    if update_pct > 100 {
                        eprintln!("--updates must be 0..=100");
                        std::process::exit(2);
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --quick      loose accuracy, fast\n       --seed N     workload seed\n       --engine     event-engine-backed cells (ext_errors)\n       --updates P  percent of records updated per cycle (ext_errors)\n       --quiet      no progress narration on stderr (errors still print)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        Cli {
            quick,
            seed,
            engine,
            update_pct,
            quiet,
        }
    }

    /// The progress sink these flags select: everything to stderr by
    /// default, errors only under `--quiet`. Tables always go to stdout —
    /// the sink carries narration, never results.
    pub fn progress(&self) -> &'static dyn ProgressSink {
        if self.quiet {
            &QuietProgress
        } else {
            &StderrProgress
        }
    }

    /// The dynamic-broadcast update stream these flags select (`None` =
    /// frozen program).
    pub fn update_spec(&self) -> Option<bda_sim::UpdateSpec> {
        (self.update_pct > 0).then(|| bda_sim::UpdateSpec {
            rate: f64::from(self.update_pct) / 100.0,
            seed: self.seed ^ 0x0DD,
            horizon_cycles: 64,
        })
    }

    /// The simulation settings these flags select.
    pub fn sim_config(&self) -> bda_sim::SimConfig {
        let mut cfg = if self.quick {
            bda_sim::SimConfig::quick()
        } else {
            // Paper-grade confidence (0.99) with a pragmatic 2 % accuracy
            // target so the full suite completes in minutes; the paper's
            // 1 % remains available programmatically.
            let mut c = bda_sim::SimConfig::paper();
            c.accuracy = 0.02;
            c
        };
        cfg.seed = self.seed;
        // Sweeps use the direct walker: it reports what the event engine
        // does for every request (the conformance matrix checks it), and
        // the simulator's two drivers agree (`tests/drivers_equiv.rs`).
        cfg.driver = bda_sim::Driver::Walker;
        cfg
    }
}
