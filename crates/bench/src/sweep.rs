//! Sweep execution: one simulated cell per (scheme, workload) point, run
//! in parallel across a sweep.
//!
//! Cell failures are **data, not panics**: a worker that hits a build
//! error, a protocol abort, or even a panic inside a simulator poisons
//! only its own cell, and [`run_cells`] reports which cell and scheme
//! failed instead of tearing down the whole sweep from a scoped thread.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bda_core::{Dataset, Key, Params};
use bda_datagen::{Popularity, QueryWorkload};
use bda_obs::{NullProgress, ProgressSink, Severity};
use bda_sim::{SchemeKind, SimConfig, SimReport, Simulator};

/// One point of a sweep: which scheme, over which dataset, at which data
/// availability.
#[derive(Clone)]
pub struct CellSpec<'a> {
    /// Scheme under test.
    pub kind: SchemeKind,
    /// The broadcast dataset.
    pub dataset: &'a Dataset,
    /// Absent-key pool (may be empty iff `availability == 1.0`).
    pub absent_pool: &'a [Key],
    /// Broadcast parameters.
    pub params: Params,
    /// Probability a query's key is broadcast.
    pub availability: f64,
    /// Simulation settings.
    pub config: SimConfig,
}

/// A failed sweep cell, identified well enough to reproduce it.
#[derive(Debug, Clone)]
pub struct CellError {
    /// Index into the spec slice given to [`run_cells`].
    pub cell: usize,
    /// Scheme of the failing cell.
    pub scheme: &'static str,
    /// Human-readable cause.
    pub message: String,
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep cell {} ({}) failed: {}",
            self.cell, self.scheme, self.message
        )
    }
}

impl std::error::Error for CellError {}

/// Per-cell workload seed: the sweep-wide base seed mixed with an FNV-1a
/// hash of the full scheme name.
///
/// Request streams are deliberately **independent across schemes** — the
/// sweep relies on each cell simulating to the configured accuracy rather
/// than on paired (common-random-number) streams, and decorrelated
/// streams keep one scheme's pathological alignment from contaminating
/// its neighbours. Hashing the whole name guarantees that schemes whose
/// names merely share a length (e.g. `"flat"` and `"(1,m)"`, which an
/// earlier length-based mix mapped to identical streams) still draw
/// distinct workloads.
fn cell_seed(base: u64, scheme: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in scheme.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    base ^ h
}

/// Build the scheme's channel, run the simulation to the configured
/// accuracy, and return the report — or a description of what failed
/// (invalid build parameters, or a protocol bug surfacing as aborted
/// requests).
pub fn run_cell(spec: &CellSpec<'_>) -> Result<SimReport, String> {
    let system = spec
        .kind
        .build(spec.dataset, &spec.params)
        .map_err(|e| format!("build failed: {e}"))?;
    let workload = QueryWorkload::new(
        spec.dataset,
        spec.absent_pool.to_vec(),
        spec.availability,
        Popularity::Uniform,
        cell_seed(spec.config.seed, spec.kind.name()),
    );
    let mut sim = Simulator::new(system.as_ref(), workload, spec.config);
    let report = sim.run();
    if report.aborted > 0 {
        return Err(format!(
            "{} of {} requests aborted (protocol bug)",
            report.aborted, report.requests
        ));
    }
    Ok(report)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".into()
    }
}

/// Run every cell, using one worker thread per available core.
///
/// Fails with the first (lowest-index) poisoned cell; all other cells
/// still run to completion, so a sweep retried after a fix does not churn.
pub fn run_cells(specs: &[CellSpec<'_>]) -> Result<Vec<SimReport>, CellError> {
    run_cells_with_progress(specs, &NullProgress)
}

/// [`run_cells`] narrating per-cell completion through a [`ProgressSink`]
/// (shared across the scoped worker threads; the sink is `Sync`). Cell
/// failures are additionally emitted at [`Severity::Error`] so they reach
/// a quiet sink too.
pub fn run_cells_with_progress(
    specs: &[CellSpec<'_>],
    progress: &dyn ProgressSink,
) -> Result<Vec<SimReport>, CellError> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(specs.len().max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let done = std::sync::atomic::AtomicUsize::new(0);
    let mut cells: Vec<Option<Result<SimReport, String>>> = vec![None; specs.len()];
    let slots: Vec<std::sync::Mutex<&mut Option<Result<SimReport, String>>>> =
        cells.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= specs.len() {
                    break;
                }
                // A panicking simulator poisons this cell, not the sweep.
                let outcome = catch_unwind(AssertUnwindSafe(|| run_cell(&specs[i])))
                    .unwrap_or_else(|payload| Err(panic_message(payload)));
                let finished = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                match &outcome {
                    Ok(r) => progress.emit(
                        Severity::Progress,
                        &format!(
                            "cell {finished}/{} done: {} ({} requests, {} rounds)",
                            specs.len(),
                            specs[i].kind.name(),
                            r.requests,
                            r.rounds
                        ),
                    ),
                    Err(message) => progress.emit(
                        Severity::Error,
                        &format!(
                            "cell {}/{} failed: {}: {message}",
                            i + 1,
                            specs.len(),
                            specs[i].kind.name()
                        ),
                    ),
                }
                if let Ok(mut slot) = slots[i].lock() {
                    **slot = Some(outcome);
                }
            });
        }
    });
    let mut reports = Vec::with_capacity(specs.len());
    for (cell, outcome) in cells.into_iter().enumerate() {
        let scheme = specs[cell].kind.name();
        match outcome {
            Some(Ok(report)) => reports.push(report),
            Some(Err(message)) => {
                return Err(CellError {
                    cell,
                    scheme,
                    message,
                })
            }
            None => {
                return Err(CellError {
                    cell,
                    scheme,
                    message: "worker never completed the cell".into(),
                })
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_datagen::DatasetBuilder;

    fn two_round_config() -> SimConfig {
        let mut cfg = SimConfig::quick();
        cfg.min_rounds = 2;
        cfg.max_rounds = 2;
        cfg.driver = bda_sim::Driver::Walker;
        cfg
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let (ds, pool) = DatasetBuilder::new(100, 5)
            .build_with_absent_pool(100)
            .unwrap();
        let cfg = two_round_config();
        let specs: Vec<CellSpec> = [SchemeKind::Flat, SchemeKind::Hashing]
            .iter()
            .map(|&kind| CellSpec {
                kind,
                dataset: &ds,
                absent_pool: &pool,
                params: Params::paper(),
                availability: 0.8,
                config: cfg,
            })
            .collect();
        let par = run_cells(&specs).unwrap();
        let seq: Vec<_> = specs.iter().map(|s| run_cell(s).unwrap()).collect();
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.access, b.access);
            assert_eq!(a.requests, b.requests);
        }
    }

    #[test]
    fn same_length_scheme_names_draw_distinct_workloads() {
        // "flat" and "(1,m)" share a name length; the old length-based
        // seed mix gave them byte-identical request streams.
        assert_ne!(cell_seed(42, "flat"), cell_seed(42, "(1,m)"));
        assert_ne!(cell_seed(42, "flat"), cell_seed(42, "hash"));
        // Deterministic: same (seed, scheme) is always the same stream.
        assert_eq!(cell_seed(42, "flat"), cell_seed(42, "flat"));
    }

    #[test]
    fn bad_cell_is_reported_not_propagated_as_panic() {
        let (ds, _pool) = DatasetBuilder::new(20, 5)
            .build_with_absent_pool(4)
            .unwrap();
        // key_size 0 fails scheme build validation.
        let bad = Params {
            record_size: 500,
            key_size: 0,
            ptr_size: 4,
            header_size: 8,
        };
        let mk = |kind, params| CellSpec {
            kind,
            dataset: &ds,
            absent_pool: &[],
            params,
            availability: 1.0,
            config: two_round_config(),
        };
        let specs = vec![
            mk(SchemeKind::Flat, Params::paper()),
            mk(SchemeKind::Hashing, bad),
        ];
        let err = run_cells(&specs).unwrap_err();
        assert_eq!(err.cell, 1);
        assert_eq!(err.scheme, "hashing");
        assert!(err.to_string().contains("hashing"), "{err}");
    }
}
