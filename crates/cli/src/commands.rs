//! The four `bda-cli` commands. Each writes its report through the one
//! stdout handle `main` passes in.

use std::fmt;
use std::io::{self, Write};
use std::num::NonZeroUsize;

use bda_btree::{DistributedScheme, OneMScheme};
use bda_core::{ChannelModel, Dataset, DynSystem, Key, Params, RetryPolicy, Scheme, System, Ticks};
use bda_datagen::{DatasetBuilder, Popularity, QueryWorkload};
use bda_hash::HashScheme;
use bda_obs::{export, MetricsHub, TraceBuilder};
use bda_sim::{Driver, SchemeKind, SchemeVisitor, SimConfig, Simulator, UpdateSpec};

use crate::args::Options;
use crate::trace::{trace_query_channel, Trace};

/// Trace sampling for `--timeline-out`: XOR'd into `--seed` to pick which
/// requests get replayed span timelines (see [`bda_obs::sample_indices`]),
/// and how many per scheme.
const TRACE_SAMPLE_SEED: u64 = 0x7ACE;
const TRACE_SAMPLE_K: usize = 8;

/// Why a command stopped before the end of its report.
#[derive(Debug)]
pub enum CliError {
    /// The command cannot honour `flag`, for the reason `why` gives; the
    /// commands in `takers` can.
    Unsupported {
        flag: &'static str,
        why: &'static str,
        takers: &'static str,
    },
    /// Any other failure, worded for the user: bad input, a program that
    /// does not build, an aborted walk, a file that cannot be written.
    Failed(String),
    /// Writing the report to stdout failed (a closed pipe among these is
    /// a quiet end; see `main`).
    Output(io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Unsupported { flag, why, takers } => {
                write!(f, "{why} — drop {flag} ({takers} take it)")
            }
            CliError::Failed(message) => f.write_str(message),
            CliError::Output(e) => write!(f, "cannot write the report: {e}"),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Output(e)
    }
}

/// The refusal of `--update-rate` by a command that shows the frozen
/// program only.
fn frozen_only(o: &Options, why: &'static str) -> Result<(), CliError> {
    match o.update_spec() {
        Some(_) => Err(CliError::Unsupported {
            flag: "--update-rate",
            why,
            takers: "compare and simulate",
        }),
        None => Ok(()),
    }
}

fn params(o: &Options) -> Result<Params, String> {
    Params::with_record_key_ratio(o.ratio).map_err(|e| e.to_string())
}

fn dataset(o: &Options) -> Result<(Dataset, Vec<Key>), String> {
    DatasetBuilder::new(o.records, o.seed)
        .build_with_absent_pool(o.records)
        .map_err(|e| e.to_string())
}

/// The refusal for `--disks` on a scheme without a broadcast-disk layout:
/// it names the schemes that have one.
fn no_disk_layout(kind: SchemeKind) -> String {
    let disk_kinds: Vec<&str> = SchemeKind::ALL
        .into_iter()
        .filter(|k| k.has_disks())
        .map(|k| k.cli_name())
        .collect();
    format!(
        "scheme {:?} has no broadcast-disk construction (try: {})",
        kind.cli_name(),
        disk_kinds.join(", ")
    )
}

/// Build `kind` on the layout the flags select, frozen or churning.
fn build(
    o: &Options,
    kind: SchemeKind,
    ds: &Dataset,
    p: &Params,
    churn: Option<UpdateSpec>,
) -> Result<Box<dyn DynSystem>, String> {
    kind.build_on(ds, p, &o.layout(), churn)
        .ok_or_else(|| no_disk_layout(kind))?
        .map_err(|e| e.to_string())
}

/// `bda-cli inspect` — layout statistics for one scheme.
pub fn inspect(o: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    frozen_only(o, "inspect describes the frozen program")?;
    let p = params(o)?;
    let (ds, _) = dataset(o)?;
    let kind: SchemeKind = o.scheme.parse()?;
    let sys = build(o, kind, &ds, &p, None)?;
    let cycle = sys.cycle_len();
    let buckets = sys.num_buckets();
    let data_bytes = ds.len() as u64 * u64::from(p.data_bucket_size());
    writeln!(out, "scheme            : {}", sys.scheme_name())?;
    writeln!(out, "records           : {}", ds.len())?;
    writeln!(
        out,
        "record/key ratio  : {} ({}B / {}B)",
        p.record_key_ratio(),
        p.record_size,
        p.key_size
    )?;
    writeln!(out, "buckets per cycle : {buckets}")?;
    writeln!(out, "cycle length      : {cycle} bytes")?;
    writeln!(
        out,
        "index overhead    : {:.2}% ({} bytes beyond raw data)",
        100.0 * (cycle.saturating_sub(data_bytes)) as f64 / cycle as f64,
        cycle.saturating_sub(data_bytes),
    )?;

    if let Some(g) = o.group_config() {
        writeln!(
            out,
            "channels          : {} (per-channel bytes air {}× slower — equal aggregate bandwidth)",
            g.channels, g.channels
        )?;
        writeln!(
            out,
            "switch cost       : {} bytes per retune",
            g.switch_cost
        )?;
        // The typed per-scheme stats below describe the single-channel
        // build; skip them for a channel group.
        return Ok(());
    }
    if let Some(d) = o.disk_config() {
        let layout = bda_core::DiskLayout::new(ds.len(), &d);
        writeln!(
            out,
            "broadcast disks   : {} requested, {} effective",
            d.disks(),
            layout.effective_disks()
        )?;
        writeln!(
            out,
            "minor cycles      : {}",
            layout.schedule().num_minor_cycles()
        )?;
        writeln!(
            out,
            "occurrences/cycle : {} ({} records, hot ones repeated)",
            layout.schedule().num_occurrences(),
            ds.len()
        )?;
        // The typed per-scheme stats below describe the unstratified
        // build; skip them for a stratified program.
        return Ok(());
    }
    // Scheme-specific details where the typed system exposes them.
    match kind {
        SchemeKind::Distributed => {
            let sys = DistributedScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            writeln!(out, "tree levels (k)   : {}", sys.num_levels())?;
            writeln!(out, "replicated levels : {} (optimal)", sys.r())?;
            writeln!(out, "index segments    : {}", sys.num_segments())?;
        }
        SchemeKind::OneM => {
            let sys = OneMScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            writeln!(out, "tree levels (k)   : {}", sys.num_levels())?;
            writeln!(out, "data segments (m) : {} (optimal)", sys.m())?;
            writeln!(out, "index buckets/copy: {}", sys.index_buckets_per_copy())?;
        }
        SchemeKind::Hashing => {
            let sys = HashScheme::new()
                .build(&ds, &p)
                .map_err(|e| e.to_string())?;
            writeln!(out, "allocated (Na)    : {}", sys.na())?;
            writeln!(out, "collisions (Nc)   : {}", sys.num_collisions())?;
            writeln!(out, "empty slots       : {}", sys.num_empty())?;
        }
        _ => {}
    }
    Ok(())
}

/// The channel-fault fragment of a report header: i.i.d. loss, burst
/// parameters, and outage windows, whichever the flags selected.
fn fault_note(o: &Options) -> String {
    let mut note = String::new();
    if let Some((p, q, lg, lb)) = o.burst {
        note.push_str(&format!(" · burst loss {p}%→bad/{q}%→good ({lg}%/{lb}%)"));
    } else if o.loss > 0.0 {
        note.push_str(&format!(" · {}% bucket loss", o.loss));
    }
    if let Some((rate, len)) = o.outage {
        note.push_str(&format!(" · {rate}% outage in {len}B windows"));
    }
    note
}

/// `bda-cli trace` — bucket-by-bucket timeline of one query.
pub fn trace(o: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    if o.group_config().is_some() {
        return Err(CliError::Unsupported {
            flag: "--channels",
            why: "trace renders a single broadcast channel",
            takers: "inspect, compare and simulate",
        });
    }
    frozen_only(o, "trace renders the frozen program")?;
    let p = params(o)?;
    let (ds, _) = dataset(o)?;
    let key = match (o.key, o.key_index) {
        (Some(k), _) => Key(k),
        (None, Some(i)) => {
            ds.records()
                .get(i)
                .ok_or_else(|| format!("--key-index {i} out of range (0..{})", ds.len()))?
                .key
        }
        (None, None) => ds.record(ds.len() / 2).key,
    };
    if !o.json && !o.perfetto {
        writeln!(
            out,
            "# {} · {} records · query {} · tune-in {}{}{}\n",
            o.scheme,
            ds.len(),
            key,
            o.tune_in,
            fault_note(o),
            match o.retry {
                Some(n) => format!(" · give up after {n} retries"),
                None => String::new(),
            }
        )?;
    }
    let kind: SchemeKind = o.scheme.parse()?;
    let query = TraceQuery {
        ds: &ds,
        p: &p,
        key,
        tune_in: o.tune_in,
        faults: o.channel_model(),
        policy: o.retry_policy(),
    };
    let t = kind
        .visit(o.disk_config(), query)
        .ok_or_else(|| no_disk_layout(kind))??;
    finish_trace(o, t, key, out)
}

/// `trace`'s visitor: build the scheme and trace one query through it.
struct TraceQuery<'a> {
    ds: &'a Dataset,
    p: &'a Params,
    key: Key,
    tune_in: Ticks,
    faults: ChannelModel,
    policy: RetryPolicy,
}

impl SchemeVisitor for TraceQuery<'_> {
    type Output = Result<Trace, String>;

    fn visit<Sch>(self, scheme: Sch) -> Self::Output
    where
        Sch: Scheme,
        <Sch::System as System>::Payload: std::fmt::Display,
    {
        let sys = scheme.build(self.ds, self.p).map_err(|e| e.to_string())?;
        Ok(trace_query_channel(
            &sys,
            self.key,
            self.tune_in,
            self.faults,
            self.policy,
        ))
    }
}

/// Render a finished trace and surface protocol aborts as errors.
fn finish_trace(o: &Options, t: Trace, key: Key, out: &mut dyn Write) -> Result<(), CliError> {
    if o.perfetto {
        // The same observed walk as `--json`, rendered as a
        // `bda-obs/trace/v1` Perfetto document: one enclosing query span
        // and one nested span per protocol step (phase-named, with its
        // byte deltas and corruption cause as args).
        let mut trace = TraceBuilder::new();
        trace.process_name(1, &o.scheme);
        trace.thread_name(1, 0, &format!("query key {}", key.0));
        trace.span(
            1,
            0,
            "query",
            o.tune_in,
            t.outcome.access,
            &[
                ("key", key.0),
                ("tuning", t.outcome.tuning),
                ("retries", u64::from(t.outcome.retries)),
                ("found", u64::from(t.outcome.found)),
            ],
        );
        for e in &t.events {
            trace.span(
                1,
                0,
                e.phase.name(),
                e.t - e.access,
                e.access,
                &[
                    ("tuning", e.tuning),
                    ("corrupt", u64::from(e.corrupt)),
                    ("outage", u64::from(e.outage)),
                ],
            );
        }
        let doc = trace.finish();
        debug_assert!(bda_obs::validate_trace(&doc).is_ok());
        writeln!(out, "{doc}")?;
    } else if o.json {
        // One machine-readable document: every event (no elision), the
        // per-phase span totals, and the outcome.
        write!(out, "{}", t.to_json(&o.scheme, key, o.tune_in))?;
    } else {
        // Long scans are elided in the middle to keep traces readable.
        const HEAD: usize = 30;
        const TAIL: usize = 10;
        if t.lines.len() <= HEAD + TAIL + 1 {
            for l in &t.lines {
                writeln!(out, "{l}")?;
            }
        } else {
            for l in &t.lines[..HEAD] {
                writeln!(out, "{l}")?;
            }
            writeln!(out, "… {} steps elided …", t.lines.len() - HEAD - TAIL)?;
            for l in &t.lines[t.lines.len() - TAIL..] {
                writeln!(out, "{l}")?;
            }
        }
    }
    if t.outcome.aborted {
        return Err(CliError::Failed(
            "protocol aborted — this is a bug, please report the flags used".into(),
        ));
    }
    Ok(())
}

/// `bda-cli compare` — quick side-by-side simulation of every scheme.
pub fn compare(o: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let p = params(o)?;
    let (ds, pool) = dataset(o)?;
    let availability = o.availability / 100.0;
    let dynamic = o.update_spec().is_some();
    writeln!(
        out,
        "# {} records · {:.0}% availability · ratio {}{}{}{}\n",
        ds.len(),
        o.availability,
        o.ratio,
        fault_note(o),
        if dynamic {
            format!(" · {}% updates/cycle", o.update_rate)
        } else {
            String::new()
        },
        if o.disks > 1 {
            format!(" · {} broadcast disks", o.disks)
        } else if o.channels > 1 {
            format!(" · {} channels (switch {}B)", o.channels, o.switch_cost)
        } else {
            String::new()
        }
    )?;
    write!(
        out,
        "{:<22} {:>12} {:>12} {:>9} {:>8} {:>7}",
        "scheme", "access(B)", "tuning(B)", "requests", "retry/q", "found%"
    )?;
    writeln!(out, "{}", if dynamic { "  restart/q" } else { "" })?;
    let mut hubs: Vec<(&str, MetricsHub)> = Vec::new();
    // One Perfetto document for the whole comparison: one process lane
    // per scheme, appended as each simulation finishes.
    let mut trace = o.timeline_out.as_ref().map(|_| TraceBuilder::new());
    // Under stratification only the disk-capable schemes compete.
    let kinds: Vec<SchemeKind> = SchemeKind::ALL
        .into_iter()
        .filter(|k| o.disk_config().is_none() || k.has_disks())
        .collect();
    for (i, kind) in kinds.iter().enumerate() {
        let name = kind.cli_name();
        let sys = build(o, *kind, &ds, &p, o.update_spec())?;
        let workload = QueryWorkload::new(
            &ds,
            pool.clone(),
            availability,
            Popularity::Uniform,
            o.seed ^ 0x17,
        );
        let mut cfg = SimConfig::quick();
        cfg.driver = Driver::Walker;
        cfg.channel = o.channel_model();
        cfg.retry = o.retry_policy();
        if o.timeline_out.is_some() {
            cfg.window = Some(sys.cycle_len());
        }
        let mut sim = Simulator::new(sys.as_ref(), workload, cfg);
        let r = if let Some(trace) = trace.as_mut() {
            let (r, hub, requests) = sim.run_observed_logged();
            let series = hub
                .windows
                .as_ref()
                .expect("timeline runs collect a windowed series");
            bda_sim::append_scheme_timeline(
                trace,
                i as u64 + 1,
                name,
                sys.as_ref(),
                &requests,
                o.channel_model(),
                o.retry_policy(),
                &[series],
                o.seed ^ TRACE_SAMPLE_SEED,
                TRACE_SAMPLE_K,
            );
            if o.metrics_out.is_some() {
                hubs.push((name, hub));
            }
            r
        } else if o.metrics_out.is_some() {
            let (r, hub) = sim.run_observed();
            hubs.push((name, hub));
            r
        } else {
            sim.run()
        };
        write!(
            out,
            "{:<22} {:>12.0} {:>12.0} {:>9} {:>8.3} {:>6.1}%",
            r.scheme,
            r.mean_access(),
            r.mean_tuning(),
            r.requests,
            r.mean_retries(),
            100.0 * r.found as f64 / r.requests as f64,
        )?;
        if dynamic {
            write!(out, "  {:>9.4}", r.restart_rate())?;
        }
        writeln!(out)?;
    }
    if let Some(path) = &o.metrics_out {
        let labelled: Vec<(&str, &MetricsHub)> = hubs.iter().map(|(s, h)| (*s, h)).collect();
        std::fs::write(path, export::to_prometheus(&labelled))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "\nwrote Prometheus metrics for {} schemes to {path}",
            hubs.len()
        )?;
    }
    if let (Some(path), Some(trace)) = (&o.timeline_out, trace) {
        let doc = trace.finish();
        debug_assert!(bda_obs::validate_trace(&doc).is_ok());
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "\nwrote Perfetto timeline for {} schemes to {path} (open in ui.perfetto.dev)",
            kinds.len()
        )?;
    }
    Ok(())
}

/// `bda-cli simulate` — full testbed run for one scheme.
pub fn simulate(o: &Options, out: &mut dyn Write) -> Result<(), CliError> {
    let p = params(o)?;
    let (ds, pool) = dataset(o)?;
    let sys = build(o, o.scheme.parse()?, &ds, &p, o.update_spec())?;
    let workload = QueryWorkload::new(
        &ds,
        pool,
        o.availability / 100.0,
        Popularity::Uniform,
        o.seed ^ 0x17,
    );
    let mut cfg = SimConfig::paper();
    cfg.accuracy = o.accuracy;
    cfg.channel = o.channel_model();
    cfg.retry = o.retry_policy();
    cfg.driver = Driver::Batch {
        shards: NonZeroUsize::new(o.shards).expect("range-checked by parse"),
    };
    if o.timeline_out.is_some() {
        // One window per broadcast cycle keeps the counter lanes legible.
        cfg.window = Some(sys.cycle_len());
    }
    let mut sim = Simulator::new(sys.as_ref(), workload, cfg);
    let (r, hub, requests) = if o.timeline_out.is_some() {
        let (r, hub, requests) = sim.run_observed_logged();
        (r, Some(hub), requests)
    } else if o.metrics_out.is_some() {
        let (r, hub) = sim.run_observed();
        (r, Some(hub), Vec::new())
    } else {
        (sim.run(), None, Vec::new())
    };
    writeln!(out, "scheme        : {}", r.scheme)?;
    writeln!(
        out,
        "requests      : {} ({} rounds{})",
        r.requests,
        r.rounds,
        if r.converged { "" } else { ", NOT converged" }
    )?;
    writeln!(
        out,
        "access time   : {:.0} ± {:.0} bytes (99% CI)",
        r.access.mean, r.access.ci_half_width
    )?;
    writeln!(
        out,
        "tuning time   : {:.0} ± {:.0} bytes (99% CI)",
        r.tuning.mean, r.tuning.ci_half_width
    )?;
    writeln!(out, "found         : {} / {}", r.found, r.requests)?;
    writeln!(out, "false drops   : {}", r.false_drops)?;
    if o.loss > 0.0 || o.burst.is_some() || o.outage.is_some() {
        writeln!(
            out,
            "corrupt reads : {} ({:.3} retries/query)",
            r.retries,
            r.mean_retries()
        )?;
        writeln!(
            out,
            "abandoned     : {} ({:.2}% of requests)",
            r.abandoned,
            100.0 * r.abandonment_rate()
        )?;
    }
    if o.update_rate > 0.0 {
        writeln!(
            out,
            "version skews : {} ({:.4} stale restarts/query)",
            r.version_skews,
            r.restart_rate()
        )?;
        writeln!(out, "stale restarts: {}", r.stale_restarts)?;
    }
    writeln!(out, "cycle length  : {} bytes", r.cycle_len)?;
    if o.channels > 1 {
        writeln!(
            out,
            "channels      : {} at equal aggregate bandwidth ({} bytes/retune)",
            o.channels, o.switch_cost
        )?;
    }
    if o.shards > 1 {
        writeln!(
            out,
            "shards        : {} (deterministic merge — identical to 1)",
            o.shards
        )?;
    }
    if let (Some(path), Some(hub)) = (&o.metrics_out, &hub) {
        let doc = if path.ends_with(".prom") {
            export::to_prometheus(&[(r.scheme, hub)])
        } else {
            let doc = export::to_json(r.scheme, hub);
            debug_assert!(export::validate(&doc).is_ok());
            doc
        };
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "metrics       : wrote {path}")?;
    }
    if let (Some(path), Some(hub)) = (&o.timeline_out, &hub) {
        let series = hub
            .windows
            .as_ref()
            .expect("timeline runs collect a windowed series");
        let doc = bda_sim::perfetto_trace(
            r.scheme,
            sys.as_ref(),
            &requests,
            o.channel_model(),
            o.retry_policy(),
            &[series],
            o.seed ^ TRACE_SAMPLE_SEED,
            TRACE_SAMPLE_K,
        );
        debug_assert!(bda_obs::validate_trace(&doc).is_ok());
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "timeline      : wrote {path} (open in ui.perfetto.dev)"
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::sample::Index;

    /// Alternative settings of one concern, each a few flag words.
    type Settings = &'static [&'static [&'static str]];

    /// The flag grid, one slot per concern — loss process, outages,
    /// layout, shards, churn — each with its in-range settings (an empty
    /// one leaves the concern at its default) and its out-of-range or
    /// conflicting ones.
    const GRID: [(Settings, Settings); 5] = [
        (
            &[
                &[],
                &["--loss", "0"],
                &["--loss", "5"],
                &["--loss", "100"],
                &["--burst", "5,30"],
                &["--burst", "0,0,0,0"],
                &["--burst", "100,100,100,100"],
            ],
            &[
                &["--loss", "100.5"],
                &["--loss", "-1"],
                &["--loss", "nan"],
                &["--burst", "5,30,0,101"],
                &["--burst", "5"],
                &["--loss", "5", "--burst", "5,30"],
            ],
        ),
        (
            &[&[], &["--outage", "10,300"], &["--outage", "100,1"]],
            &[
                &["--outage", "0,300"],
                &["--outage", "10,0"],
                &["--outage", "101,5"],
            ],
        ),
        (
            &[
                &[],
                &["--disks", "1"],
                &["--disks", "3"],
                &["--disks", "8"],
                &["--channels", "1"],
                &["--channels", "2", "--switch-cost", "0"],
                &["--channels", "64", "--switch-cost", "4294967296"],
            ],
            &[
                &["--disks", "0"],
                &["--disks", "9"],
                &["--channels", "0"],
                &["--channels", "65"],
                &["--channels", "2", "--switch-cost", "4294967297"],
                &["--disks", "3", "--channels", "2"],
            ],
        ),
        (
            &[
                &[],
                &["--shards", "1"],
                &["--shards", "3"],
                &["--shards", "64"],
            ],
            &[&["--shards", "0"], &["--shards", "65"]],
        ),
        (
            &[
                &[],
                &["--update-rate", "0"],
                &["--update-rate", "20"],
                &["--update-rate", "100"],
            ],
            &[&["--update-rate", "101"], &["--update-rate", "-1"]],
        ),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// No input reachable from the command line panics: every
        /// combination of the grid either fails to parse or runs each
        /// command to a typed result. A loose accuracy, one or forty
        /// records and a two-retry budget keep dead air finite and cheap.
        #[test]
        fn no_flag_combination_panics(
            picks in proptest::collection::vec(any::<Index>(), GRID.len()..GRID.len() + 1),
            bad in 0..2 * GRID.len(),
            records in 0usize..2,
        ) {
            // Half the cases put one concern out of range.
            let mut argv: Vec<String> = ["--records", ["1", "40"][records]]
                .into_iter()
                .chain(["--accuracy", "0.5", "--retry", "2"])
                .map(String::from)
                .collect();
            for (slot, ((ok, out_of_range), pick)) in GRID.iter().zip(&picks).enumerate() {
                let values = if slot == bad { out_of_range } else { ok };
                argv.extend(values[pick.index(values.len())].iter().map(|v| v.to_string()));
            }
            let Ok(o) = Options::parse(&argv) else {
                return;
            };
            type Command = fn(&Options, &mut dyn Write) -> Result<(), CliError>;
            for command in [inspect, trace, compare, simulate] as [Command; 4] {
                let _ = command(&o, &mut io::sink());
            }
        }
    }
}
