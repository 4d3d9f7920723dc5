//! The `paper-sweep` workload: the paper's Fig. 4 grid through
//! `bda_bench::run_cells`.
//!
//! Flat, distributed, hashing and signature at record counts from the
//! paper's range. Each cell runs the accuracy-controlled `Simulator` at
//! the experiment harness's settings (0.99 confidence, 2 % accuracy,
//! Poisson arrivals, direct walker) on the sweep's worker threads, one per
//! core. The grid is trimmed to the two smallest record counts so that
//! several passes fit in one run: a 34 000-record scan cell alone takes
//! seconds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bda_bench::{run_cells, CellSpec, Cli, SchemeKind};
use bda_core::{Dataset, DynSystem, Params};
use bda_datagen::{Arrivals, DatasetBuilder, Popularity, QueryWorkload};
use bda_obs::Histogram;
use bda_sim::{RequestGenerator, SimConfig, SimReport, Simulator};

use crate::report::Report;
use crate::stats::{fastest, iqr_share, median};
use crate::trace::{self, Ctx, Tracer};
use crate::walk::{channel_checks, slot_loop};
use crate::{family, is_scan, model_access, model_error, slug, Figures};

/// Record counts of the trimmed grid (the paper sweeps 7 000–34 000).
const SIZES: [usize; 2] = [7_000, 10_000];
const SCHEMES: [SchemeKind; 4] = [
    SchemeKind::Flat,
    SchemeKind::Distributed,
    SchemeKind::Hashing,
    SchemeKind::Signature,
];
/// Set-ups before the first pass; each pass adds one more, and `setup_s`
/// is the median of them all.
const SETUP_REPS: u64 = 3;
/// Fewest timed passes, so a traced run has a recorded and an unrecorded
/// pass to compare.
const MIN_PASSES: u64 = 2;
/// The index family's cells take milliseconds; each pass runs them this
/// many times and keeps the median wall time.
const INDEX_REPEATS: usize = 15;

/// The experiment harness's full-accuracy simulation settings.
fn sim_config(seed: u64) -> SimConfig {
    Cli {
        quick: false,
        seed,
        engine: false,
        update_pct: 0,
        quiet: true,
    }
    .sim_config()
}

/// The exact figures every repetition of a cell must repeat at one seed.
fn cell_counters(r: &SimReport) -> [(&'static str, u128); 6] {
    [
        ("requests", u128::from(r.requests)),
        ("rounds", r.rounds as u128),
        ("access_sum", r.access_hist.sum()),
        ("tuning_sum", r.tuning_hist.sum()),
        ("retries", u128::from(r.retries)),
        ("abandoned", u128::from(r.abandoned)),
    ]
}

/// Check one pass's reports: wrong answers count as failures, and every
/// exact figure must equal the first pass's.
fn check_reports(reports: &[SimReport], first: &[SimReport], pass: u64, report: &mut Report) {
    for (r, f) in reports.iter().zip(first) {
        // Every key is present and the channel is lossless.
        report.tally(r.requests, r.aborted + r.not_found, || {
            format!("{} requests aborted or missed a present key", r.scheme)
        });
        let diverged = cell_counters(r)
            .into_iter()
            .zip(cell_counters(f))
            .find(|(a, b)| a != b);
        if let Some(((counter, _), _)) = diverged {
            report.diverged(counter, r.scheme, pass);
        }
    }
}

fn requests_of<'a>(reports: impl IntoIterator<Item = &'a SimReport>) -> u64 {
    reports.into_iter().map(|r| r.requests).sum()
}

pub fn run(
    seed: u64,
    seconds: u64,
    tracer: &Tracer,
    report: &mut Report,
    figures: &mut Figures,
) -> Result<(), String> {
    let params = Params::paper();
    let config = sim_config(seed);

    let setup = |rep: u64| {
        tracer.span("setup", Ctx::default().pass(rep), |ctx| {
            SIZES
                .iter()
                .map(|&nr| {
                    let (ds, _) = tracer.span("datagen", ctx, |_| {
                        DatasetBuilder::new(nr, seed ^ nr as u64).build()
                    });
                    ds.map_err(|e| format!("dataset of {nr} records: {e}"))
                })
                .collect::<Result<Vec<Dataset>, String>>()
        })
    };
    let mut setup_s = Vec::new();
    let mut datasets = Vec::new();
    for rep in 0..SETUP_REPS {
        datasets.clear();
        let (built, secs) = setup(rep);
        datasets = built?;
        setup_s.push(secs);
    }

    let cells: Vec<CellSpec> = datasets
        .iter()
        .flat_map(|dataset| {
            SCHEMES.map(|kind| CellSpec {
                kind,
                dataset,
                absent_pool: &[],
                params,
                availability: 1.0,
                config,
            })
        })
        .collect();
    let (scan_cells, index_cells): (Vec<CellSpec>, Vec<CellSpec>) =
        cells.iter().cloned().partition(|c| is_scan(c.kind));

    // Timed passes; a traced run alternates recorded and unrecorded ones.
    let unrecorded = Tracer::new(false);
    let mut first_scan: Option<Vec<SimReport>> = None;
    let mut first_index: Option<Vec<SimReport>> = None;
    let (mut scan_s, mut index_s) = (Vec::new(), Vec::new());
    let mut recorded = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut pass = 0u64;
    while pass < MIN_PASSES || Instant::now() < deadline {
        // One more set-up per pass, so set-up samples spread over the run
        // as the timed passes do.
        let (extra, secs) = setup(SETUP_REPS + pass);
        extra?;
        setup_s.push(secs);
        let record = pass.is_multiple_of(2);
        let t = if record { tracer } else { &unrecorded };
        let ctx = Ctx::default().pass(pass);
        let sweep = |specs: &[CellSpec]| {
            let (reports, secs) = t.span("sweep.run_cells", ctx, |_| run_cells(specs));
            reports.map(|r| (r, secs)).map_err(|e| e.to_string())
        };
        let (scan, secs) = sweep(&scan_cells)?;
        check_reports(
            &scan,
            first_scan.get_or_insert_with(|| scan.clone()),
            pass,
            report,
        );
        scan_s.push(secs);
        let mut repeats = Vec::with_capacity(INDEX_REPEATS);
        for _ in 0..INDEX_REPEATS {
            let (index, secs) = sweep(&index_cells)?;
            check_reports(
                &index,
                first_index.get_or_insert_with(|| index.clone()),
                pass,
                report,
            );
            repeats.push(secs);
        }
        index_s.push(fastest(repeats));
        recorded.push(record);
        pass += 1;
    }
    let pass_s: Vec<f64> = scan_s.iter().zip(&index_s).map(|(a, b)| a + b).collect();
    eprintln!(
        "perfbench: {pass} passes, within-run spread of pass time {:.3}",
        iqr_share(&pass_s)
    );
    let (scan, index) = first_scan.zip(first_index).ok_or("no pass ran")?;
    // The rest of the host only ever slows a sweep down, so the fastest
    // repetition of the run is the steadiest estimate of its cost.
    let scan_best = fastest(scan_s.iter().copied());
    let index_best = fastest(index_s.iter().copied());
    let reports: Vec<&SimReport> = scan.iter().chain(&index).collect();

    let mut access = Histogram::new();
    let mut tuning = Histogram::new();
    let mut per_scheme: Vec<(SchemeKind, f64, u64)> = Vec::new();
    for (cell, r) in scan_cells.iter().chain(&index_cells).zip(&reports) {
        access.merge(&r.access_hist);
        tuning.merge(&r.tuning_hist);
        let model = model_access(cell.kind, &params, cell.dataset.len())
            .ok_or("the Fig. 4 grid holds only modelled schemes")?;
        let err = model_error(r.mean_access(), model);
        match per_scheme.iter_mut().find(|(k, _, _)| *k == cell.kind) {
            Some((_, e, n)) => {
                *e += err * r.requests as f64;
                *n += r.requests;
            }
            None => per_scheme.push((cell.kind, err * r.requests as f64, r.requests)),
        }
    }
    let total = requests_of(reports.iter().copied());
    figures.set("scan_requests_per_s", requests_of(&scan) as f64 / scan_best);
    figures.set(
        "index_requests_per_s",
        requests_of(&index) as f64 / index_best,
    );
    figures.set("sweep_s", scan_best + index_best);
    figures.set("setup_s", median(&setup_s));
    figures.set(
        "access_ticks_mean",
        access.sum() as f64 / access.len() as f64,
    );
    figures.set("access_ticks_p999", access.quantile(0.999) as f64);
    figures.set(
        "tuning_ticks_mean",
        tuning.sum() as f64 / tuning.len() as f64,
    );
    figures.set(
        "analytical.access_model_error",
        per_scheme.iter().map(|(_, e, _)| e).sum::<f64>() / total as f64,
    );

    if !tracer.enabled() {
        return Ok(());
    }

    for (kind, err, n) in &per_scheme {
        figures.set(
            &format!("analytical.access_error.{}", slug(*kind)),
            err / *n as f64,
        );
    }
    let pass_best = |keep: bool| {
        let only = |times: &[f64]| {
            fastest(
                times
                    .iter()
                    .zip(&recorded)
                    .filter(|(_, r)| **r == keep)
                    .map(|(s, _)| *s),
            )
        };
        only(&scan_s) + only(&index_s)
    };
    figures.set("trace.overhead", pass_best(false) / pass_best(true));
    let spans = tracer.spans();
    let reps: Vec<f64> = (0..setup_s.len() as u64)
        .map(|r| trace::self_s(&spans, "datagen", |s| s.pass == r))
        .collect();
    figures.set("datagen.build_s", median(&reps));
    layers(&cells, config, seed, tracer, report, figures)
}

/// One cell of the traced pipeline.
struct Cell {
    kind: SchemeKind,
    system: Box<dyn DynSystem>,
    report: SimReport,
    workload: QueryWorkload,
    build_s: f64,
    sim_s: f64,
}

/// The traced run's layer breakdown: each cell built and simulated under
/// its own spans on the sweep's worker count, then its request stream
/// replayed through the direct walker and a fast-forwarding slot.
fn layers(
    cells: &[CellSpec],
    config: SimConfig,
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
    figures: &mut Figures,
) -> Result<(), String> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(cells.len());
    let next = AtomicUsize::new(0);
    // (cell index, cell, seconds of its span)
    type Done = (usize, Result<Cell, String>, f64);
    let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
    let ((), wall_s) = tracer.span("sweep.cells", Ctx::default(), |ctx| {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (next, done) = (&next, &done);
                let ctx = ctx.thread(w as u64 + 1);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = cells.get(i) else { break };
                    let (cell, secs) = tracer.span("sweep.cell", ctx, |ctx| {
                        run_cell(spec, config, seed, i, tracer, ctx)
                    });
                    done.lock()
                        .expect("a sweep worker panicked")
                        .push((i, cell, secs));
                });
            }
        });
    });
    let mut done = done.into_inner().expect("a sweep worker panicked");
    done.sort_by_key(|(i, _, _)| *i);
    let cell_s: Vec<f64> = done.iter().map(|(_, _, secs)| *secs).collect();
    let cells: Vec<Cell> = done
        .into_iter()
        .map(|(_, c, _)| c)
        .collect::<Result<_, _>>()?;

    // [index, scan] sums.
    let mut fam = [Replay::default(); 2];
    let (mut checks, mut check_s) = (0u64, 0.0);
    for cell in &cells {
        let sys = cell.system.as_ref();
        let f = &mut fam[usize::from(is_scan(cell.kind))];
        let requests = RequestGenerator::new(
            Arrivals::new(config.mean_interarrival, config.seed),
            cell.workload.clone(),
        )
        .round(cell.report.requests as usize);
        let (walked, probe_s) = tracer.span("machine.probe", Ctx::default(), |_| {
            requests
                .iter()
                .map(|&(t, k)| {
                    sys.probe_with_channel(k, t, config.effective_channel(), config.retry)
                })
                .collect::<Vec<_>>()
        });
        let access: u128 = walked.iter().map(|o| u128::from(o.access)).sum();
        let tuning: u128 = walked.iter().map(|o| u128::from(o.tuning)).sum();
        let agrees =
            access == cell.report.access_hist.sum() && tuning == cell.report.tuning_hist.sum();
        report.tally(1, u64::from(!agrees), || {
            format!(
                "{} cell replays disagreed with the simulator",
                cell.kind.name()
            )
        });
        let ((steps, wrong), slot_s) = tracer.span("machine.slot_loop", Ctx::default(), |_| {
            slot_loop(
                sys,
                &requests,
                (config.effective_channel(), config.retry),
                walked.iter().copied(),
            )
        });
        report.tally(requests.len() as u64, wrong, || {
            format!(
                "{} slot-loop outcomes differed from the walker",
                cell.kind.name()
            )
        });
        let horizon = requests.last().map_or(0, |r| r.0) + sys.cycle_len();
        let (c, s) = tracer.span("channel.check", Ctx::default(), |_| {
            channel_checks(config.effective_channel(), sys, horizon)
        });
        checks += c;
        check_s += s;
        f.requests += cell.report.requests;
        f.rounds += cell.report.rounds as u64;
        f.sim_s += cell.sim_s;
        f.probe_s += probe_s;
        f.slot_s += slot_s;
        f.steps += steps;
    }

    figures.set("scheme.build_s", cells.iter().map(|c| c.build_s).sum());
    figures.set(
        "scheme.buckets",
        cells.iter().map(|c| c.system.num_buckets()).sum::<usize>() as f64,
    );
    for (f, kind) in fam.iter().zip([SchemeKind::Distributed, SchemeKind::Flat]) {
        let suffix = family(kind);
        let n = f.requests as f64;
        figures.set(
            &format!("machine.ns_per_request.{suffix}"),
            f.slot_s * 1e9 / n,
        );
        figures.set(
            &format!("machine.steps_per_request.{suffix}"),
            f.steps as f64 / n,
        );
        figures.set(
            &format!("machine.probe_ns_per_request.{suffix}"),
            f.probe_s * 1e9 / n,
        );
        figures.set(&format!("simulator.requests_per_s.{suffix}"), n / f.sim_s);
    }
    figures.set(
        "simulator.requests",
        (fam[0].requests + fam[1].requests) as f64,
    );
    figures.set("simulator.rounds", (fam[0].rounds + fam[1].rounds) as f64);
    figures.set("sweep.cell_s.p50", median(&cell_s));
    figures.set(
        "sweep.cell_s.max",
        cell_s.iter().copied().fold(0.0, f64::max),
    );
    figures.set(
        "sweep.parallel_efficiency",
        cell_s.iter().sum::<f64>() / (workers as f64 * wall_s),
    );
    figures.set("channel.ns_per_check", check_s * 1e9 / checks as f64);
    Ok(())
}

/// Per-family sums of the replayed cells.
#[derive(Debug, Default, Clone, Copy)]
struct Replay {
    requests: u64,
    rounds: u64,
    sim_s: f64,
    probe_s: f64,
    slot_s: f64,
    steps: u64,
}

/// Build and simulate one cell under spans, with a workload seed of its
/// own so its request stream can be regenerated for the replays.
fn run_cell(
    spec: &CellSpec,
    config: SimConfig,
    seed: u64,
    index: usize,
    tracer: &Tracer,
    ctx: Ctx,
) -> Result<Cell, String> {
    let (system, build_s) = tracer.span("scheme.build", ctx, |_| {
        spec.kind.build(spec.dataset, &spec.params)
    });
    let system = system.map_err(|e| format!("{}: {e}", spec.kind.name()))?;
    let workload = QueryWorkload::new(
        spec.dataset,
        Vec::new(),
        1.0,
        Popularity::Uniform,
        seed ^ ((index as u64 + 1) << 32),
    );
    let (sim, sim_s) = tracer.span("simulator.run", ctx, |_| {
        Simulator::new(system.as_ref(), workload.clone(), config).run()
    });
    Ok(Cell {
        kind: spec.kind,
        system,
        report: sim,
        workload,
        build_s,
        sim_s,
    })
}
