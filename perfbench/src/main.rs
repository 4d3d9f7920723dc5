//! `perfbench` — end-to-end and per-layer benchmark of the broadcast data
//! access workspace.
//!
//! ```text
//! perfbench --workload <frozen-100k|churn-lossy|paper-sweep>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Builds the workload's inputs from the seed, measures for the given
//! number of seconds and checks every output. Stdout carries a run record
//! (workload, seeds, host) and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans as a `bda-obs/trace/v1` document next to the
//! executable. See README.md for the workloads and what each layer does
//! in them.

mod engine_runs;
mod host;
mod report;
mod stats;
mod sweep;
mod trace;
mod walk;

use std::collections::BTreeMap;
use std::path::PathBuf;

use bda_bench::SchemeKind;
use bda_core::Params;
use bda_signature::SigParams;

use report::Report;
use trace::Tracer;

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;
/// A second seed, kept out of tuning, for confirming later claims.
const CONFIRM_SEED: u64 = 2002;

/// End-to-end metrics and their units, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("scan_requests_per_s", "req/s"),
    ("index_requests_per_s", "req/s"),
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("access_ticks_mean", "ticks"),
    ("access_ticks_p999", "ticks"),
    ("tuning_ticks_mean", "ticks"),
];

/// Per-layer metrics and their units, printed by every traced run. A
/// layer that does no work on a workload reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.build_s", "s"),
    ("scheme.build_s", "s"),
    ("scheme.buckets", "count"),
    ("machine.ns_per_request.scan", "ns"),
    ("machine.ns_per_request.index", "ns"),
    ("machine.steps_per_request.scan", "steps"),
    ("machine.steps_per_request.index", "steps"),
    ("machine.probe_ns_per_request.scan", "ns"),
    ("machine.probe_ns_per_request.index", "ns"),
    ("ff.speedup.scan", "ratio"),
    ("ff.ratio.index", "ratio"),
    ("ff.events_per_request.off.scan", "events"),
    ("engine.ns_per_event.scan", "ns"),
    ("engine.ns_per_event.index", "ns"),
    ("engine.events_per_request.scan", "events"),
    ("engine.events_per_request.index", "events"),
    ("engine.events_per_batch", "events"),
    ("engine.peak_in_flight", "clients"),
    ("engine.requests_per_s.flat", "req/s"),
    ("engine.requests_per_s.one-m", "req/s"),
    ("engine.requests_per_s.distributed", "req/s"),
    ("engine.requests_per_s.hashing", "req/s"),
    ("engine.requests_per_s.signature", "req/s"),
    ("engine.requests_per_s.integrated-signature", "req/s"),
    ("engine.requests_per_s.multilevel-signature", "req/s"),
    ("engine.requests_per_s.hybrid", "req/s"),
    ("channel.ns_per_check", "ns"),
    ("channel.corrupt_reads_per_request", "reads"),
    ("channel.abandon_rate", "ratio"),
    ("versioned.stale_restarts_per_request", "restarts"),
    ("versioned.version_skews_per_request", "skews"),
    ("sharded.one_over_plain", "ratio"),
    ("sharded.speedup_2", "ratio"),
    ("sharded.merge_s", "s"),
    ("sharded.load_ratio", "ratio"),
    ("simulator.requests", "requests"),
    ("simulator.rounds", "rounds"),
    ("simulator.requests_per_s.scan", "req/s"),
    ("simulator.requests_per_s.index", "req/s"),
    ("sweep.cell_s.p50", "s"),
    ("sweep.cell_s.max", "s"),
    ("sweep.parallel_efficiency", "ratio"),
    ("obs.observed_over_noop", "ratio"),
    ("analytical.access_model_error", "ratio"),
    ("analytical.access_error.flat", "ratio"),
    ("analytical.access_error.distributed", "ratio"),
    ("analytical.access_error.hashing", "ratio"),
    ("analytical.access_error.signature", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The figures one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Figures(BTreeMap<&'static str, f64>);

impl Figures {
    /// Record `name`, which must be one of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("{name} is not a declared metric"));
        self.0.insert(name, value);
    }

    /// Every metric of `declared` into `report`, 0 where none was set.
    fn emit(&self, declared: &[(&'static str, &'static str)], report: &mut Report) {
        for &(name, unit) in declared {
            report.metric(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}

/// The scan family: schemes whose clients read bucket after bucket until
/// the key shows up. The other four navigate an index or a hash.
const SCAN: [SchemeKind; 4] = [
    SchemeKind::Flat,
    SchemeKind::Signature,
    SchemeKind::IntegratedSignature,
    SchemeKind::MultiLevelSignature,
];

pub fn is_scan(kind: SchemeKind) -> bool {
    SCAN.contains(&kind)
}

/// The family suffix of a metric name.
pub fn family(kind: SchemeKind) -> &'static str {
    if is_scan(kind) {
        "scan"
    } else {
        "index"
    }
}

/// A scheme's name as a metric-name component.
pub fn slug(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::OneM => "one-m",
        other => other.name(),
    }
}

/// The paper's closed-form access time for the four schemes Fig. 4 plots
/// with an analytical curve; `None` for the others.
pub fn model_access(kind: SchemeKind, params: &Params, records: usize) -> Option<f64> {
    let model = match kind {
        SchemeKind::Flat => bda_analytical::flat(params, records),
        SchemeKind::Distributed => bda_analytical::distributed(params, records, None),
        SchemeKind::Hashing => bda_analytical::hash_poisson(params, records, 1.0),
        // Datagen records carry four attributes, the key among them.
        SchemeKind::Signature => {
            bda_analytical::signature(params, &SigParams::default(), 4, records)
        }
        _ => return None,
    };
    Some(model.access)
}

/// Relative distance of a simulated mean access time from the model.
pub fn model_error(simulated: f64, model: f64) -> f64 {
    (simulated - model).abs() / model
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Frozen100k,
    ChurnLossy,
    PaperSweep,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Frozen100k,
        Workload::ChurnLossy,
        Workload::PaperSweep,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Frozen100k => "frozen-100k",
            Workload::ChurnLossy => "churn-lossy",
            Workload::PaperSweep => "paper-sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <frozen-100k|churn-lossy|paper-sweep> \
                     [--seed N] [--seconds 1..=600] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == name);
                workload = Some(w.ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where a traced run writes its spans: beside the executable, inside the
/// build directory.
fn trace_path(workload: Workload, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-seed{seed}.json", workload.name())))
}

fn run(args: &Args) -> Result<String, String> {
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    let mut figures = Figures::default();
    match args.workload {
        Workload::Frozen100k => engine_runs::run(
            engine_runs::Shape::Frozen,
            args.seed,
            args.seconds,
            &tracer,
            &mut report,
            &mut figures,
        )?,
        Workload::ChurnLossy => engine_runs::run(
            engine_runs::Shape::Churn,
            args.seed,
            args.seconds,
            &tracer,
            &mut report,
            &mut figures,
        )?,
        Workload::PaperSweep => {
            sweep::run(args.seed, args.seconds, &tracer, &mut report, &mut figures)?
        }
    }
    figures.set("peak_rss_mib", host::peak_rss_mib()?);

    let mut trace_file = String::from("null");
    if args.trace {
        let doc = trace::document(
            &format!("perfbench {} seed {}", args.workload.name(), args.seed),
            &tracer.spans(),
        );
        bda_obs::validate_trace(&doc).map_err(|e| format!("invalid trace document: {e}"))?;
        let path = trace_path(args.workload, args.seed)?;
        std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        trace_file = format!("\"{}\"", path.display());
        figures.emit(PER_LAYER, &mut report);
    } else {
        figures.emit(END_TO_END, &mut report);
    }
    println!(
        "{{\"run\": {{\"workload\": \"{}\", \"seed\": {}, \"confirm_seed\": {CONFIRM_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"trace_file\": {trace_file}, \"host\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::host_block(),
    );
    report.result_line()
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_obs::export::{parse_json, Json};

    /// `(name, unit)` of every metric a section of BENCHMARK.json lists.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let Some(Json::Arr(items)) = doc.get(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {section} entry"),
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn benchmark_json_workloads_are_ours() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no workloads list");
        };
        for w in items {
            let Some(Json::Str(name)) = w.get("name") else {
                panic!("workload without a name");
            };
            assert!(
                Workload::ALL.iter().any(|ours| ours.name() == name),
                "unknown workload {name}"
            );
        }
    }

    #[test]
    fn every_workload_emits_every_declared_metric() {
        for declared in [END_TO_END, PER_LAYER] {
            let mut report = Report::default();
            Figures::default().emit(declared, &mut report);
            let line = report.result_line().unwrap();
            let doc = parse_json(&line).unwrap();
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics object");
            };
            assert_eq!(metrics.len(), declared.len());
        }
    }

    #[test]
    #[should_panic(expected = "not a declared metric")]
    fn undeclared_metric_names_are_a_bug() {
        Figures::default().set("engine.requests_per_s.(1,m)", 1.0);
    }

    #[test]
    fn family_split_is_four_and_four() {
        let scan = SchemeKind::ALL.iter().filter(|k| is_scan(**k)).count();
        assert_eq!(scan, 4);
        assert_eq!(slug(SchemeKind::OneM), "one-m");
    }
}
