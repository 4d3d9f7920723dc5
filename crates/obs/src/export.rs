//! Exporters: the `bda-obs/v1` JSON schema, a Prometheus text renderer,
//! and a dependency-free validator for the JSON schema.
//!
//! # The `bda-obs/v1` JSON schema
//!
//! One object per (scheme, driver) hub:
//!
//! ```json
//! {
//!   "schema": "bda-obs/v1",
//!   "scheme": "flat",
//!   "completed": 100, "found": 100, "abandoned": 0,
//!   "phases": {
//!     "initial_probe":   {"access": 1, "tuning": 1, "count": 1},
//!     "index_traversal": {"access": 0, "tuning": 0, "count": 0},
//!     "doze":            {"access": 9, "tuning": 0, "count": 2},
//!     "data_read":       {"access": 5, "tuning": 5, "count": 1},
//!     "retry":           {"access": 0, "tuning": 0, "count": 0},
//!     "stale_recovery":  {"access": 0, "tuning": 0, "count": 0}
//!   },
//!   "access":      {"count": 100, "sum": 1, "min": 1, "max": 9,
//!                   "p50": 4, "p90": 8, "p99": 9, "p999": 9},
//!   "tuning":      { ...same shape... },
//!   "retry_depth": { ...same shape... },
//!   "gauges": {
//!     "in_flight": {"last": 0, "min": 0, "max": 7, "mean": 3.5,
//!                   "samples": 12},
//!     "slab_occupancy": { ... }, "wakeup_queue_depth": { ... },
//!     "free_list_len": { ... }
//!   }
//! }
//! ```
//!
//! Every phase and gauge key is always present (zeros included), so
//! downstream tooling never branches on key existence. [`validate`]
//! checks exactly this contract and is what the CI `obs-smoke` job runs
//! against freshly emitted files.
//!
//! When the hub carries a windowed [`crate::TimeSeries`], the document
//! additionally gets a `"timeline"` block — window width, the evicted
//! fold, and one object per live window (id, counters, per-phase
//! totals). The block is optional (absent for aggregate-only hubs), but
//! when present the validator checks it structurally *and* checks the
//! collector's core invariant: window sums (plus the evicted fold) equal
//! the top-level aggregates exactly.

use crate::gauges::Gauge;
use crate::metrics::MetricsHub;
use crate::phase::Phase;
use crate::recorder::PhaseSpans;
use crate::timeseries::WindowStats;

/// The schema identifier written into (and required of) every document.
pub const SCHEMA: &str = "bda-obs/v1";

pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn histogram_json(h: &crate::histogram::Histogram) -> String {
    let (p50, p90, p99, p999) = h.percentiles();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
        h.len(),
        h.sum(),
        h.min(),
        h.max(),
        p50,
        p90,
        p99,
        p999
    )
}

fn phases_json(spans: &PhaseSpans) -> String {
    let mut out = String::from("{");
    for (i, (phase, t)) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"access\":{},\"tuning\":{},\"count\":{}}}",
            phase.name(),
            t.access,
            t.tuning,
            t.count
        ));
    }
    out.push('}');
    out
}

fn window_stats_json(w: &WindowStats) -> String {
    format!(
        "{{\"completions\":{},\"found\":{},\"abandoned\":{},\"corrupt_reads\":{},\
         \"stale_restarts\":{},\"version_skews\":{},\"access\":{},\"tuning\":{},\
         \"wake_batches\":{},\"in_flight_high\":{},\"busy_ticks\":{},\"phases\":{}}}",
        w.completions,
        w.found,
        w.abandoned,
        w.corrupt_reads,
        w.stale_restarts,
        w.version_skews,
        w.access_ticks,
        w.tuning_ticks,
        w.wake_batches,
        w.in_flight_high,
        w.busy_ticks,
        phases_json(&w.spans)
    )
}

/// Render `hub` as one `bda-obs/v1` JSON object.
pub fn to_json(scheme: &str, hub: &MetricsHub) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str(&format!(
        "{{\"schema\":\"{}\",\"scheme\":\"{}\",\"completed\":{},\"found\":{},\"abandoned\":{},",
        SCHEMA,
        escape(scheme),
        hub.completed,
        hub.found,
        hub.abandoned
    ));
    out.push_str(&format!("\"phases\":{},", phases_json(&hub.spans)));
    out.push_str(&format!("\"access\":{},", histogram_json(&hub.access)));
    out.push_str(&format!("\"tuning\":{},", histogram_json(&hub.tuning)));
    out.push_str(&format!(
        "\"retry_depth\":{},",
        histogram_json(&hub.retry_depth)
    ));
    out.push_str("\"gauges\":{");
    for (i, (gauge, s)) in hub.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{}\":{{\"last\":{},\"min\":{},\"max\":{},\"mean\":{},\"samples\":{}}}",
            gauge.name(),
            s.last,
            s.min(),
            s.max,
            s.mean(),
            s.samples
        ));
    }
    out.push('}');
    if let Some(ts) = hub.windows.as_ref() {
        out.push_str(&format!(
            ",\"timeline\":{{\"window_width\":{},\"retain\":{},\"watermark\":{},\"evicted\":{},\"windows\":[",
            ts.width(),
            ts.spec().retain,
            ts.watermark(),
            window_stats_json(ts.evicted())
        ));
        for (i, (id, w)) in ts.windows().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let stats = window_stats_json(w);
            out.push_str(&format!("{{\"id\":{id},{}", &stats[1..]));
        }
        out.push_str("]}");
    }
    out.push('}');
    out
}

fn prom_summary(out: &mut String, name: &str, scheme: &str, h: &crate::histogram::Histogram) {
    let scheme = escape(scheme);
    for (q, v) in [
        (0.5, h.quantile(0.5)),
        (0.9, h.quantile(0.9)),
        (0.99, h.quantile(0.99)),
        (0.999, h.quantile(0.999)),
    ] {
        out.push_str(&format!(
            "{name}{{scheme=\"{scheme}\",quantile=\"{q}\"}} {v}\n"
        ));
    }
    out.push_str(&format!("{name}_sum{{scheme=\"{scheme}\"}} {}\n", h.sum()));
    out.push_str(&format!(
        "{name}_count{{scheme=\"{scheme}\"}} {}\n",
        h.len()
    ));
}

/// Render hubs — one per scheme — in the Prometheus text exposition
/// format (`bda-cli simulate/compare --metrics-out` writes this).
pub fn to_prometheus(hubs: &[(&str, &MetricsHub)]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# HELP bda_queries_total Completed queries.\n# TYPE bda_queries_total counter\n");
    for (scheme, hub) in hubs {
        out.push_str(&format!(
            "bda_queries_total{{scheme=\"{}\"}} {}\n",
            escape(scheme),
            hub.completed
        ));
    }
    out.push_str(
        "# HELP bda_queries_found_total Queries that found their record.\n# TYPE bda_queries_found_total counter\n",
    );
    for (scheme, hub) in hubs {
        out.push_str(&format!(
            "bda_queries_found_total{{scheme=\"{}\"}} {}\n",
            escape(scheme),
            hub.found
        ));
    }
    out.push_str(
        "# HELP bda_queries_abandoned_total Queries abandoned by the retry policy.\n# TYPE bda_queries_abandoned_total counter\n",
    );
    for (scheme, hub) in hubs {
        out.push_str(&format!(
            "bda_queries_abandoned_total{{scheme=\"{}\"}} {}\n",
            escape(scheme),
            hub.abandoned
        ));
    }
    for (family, help, pick) in [
        (
            "bda_phase_access_bytes_total",
            "Access-time bytes attributed to each walk phase.",
            0usize,
        ),
        (
            "bda_phase_tuning_bytes_total",
            "Tuning-time bytes attributed to each walk phase.",
            1,
        ),
        (
            "bda_phase_steps_total",
            "Walk steps attributed to each phase.",
            2,
        ),
    ] {
        out.push_str(&format!(
            "# HELP {family} {help}\n# TYPE {family} counter\n"
        ));
        for (scheme, hub) in hubs {
            for phase in Phase::ALL {
                let t = hub.spans.get(phase);
                let v = [t.access, t.tuning, t.count][pick];
                out.push_str(&format!(
                    "{family}{{scheme=\"{}\",phase=\"{}\"}} {v}\n",
                    escape(scheme),
                    phase.name()
                ));
            }
        }
    }
    for (family, help, which) in [
        (
            "bda_access_bytes",
            "Per-query access time in bytes.",
            0usize,
        ),
        ("bda_tuning_bytes", "Per-query tuning time in bytes.", 1),
        (
            "bda_retry_depth",
            "Corrupted reads ridden out per query.",
            2,
        ),
    ] {
        out.push_str(&format!(
            "# HELP {family} {help}\n# TYPE {family} summary\n"
        ));
        for (scheme, hub) in hubs {
            let h = [&hub.access, &hub.tuning, &hub.retry_depth][which];
            prom_summary(&mut out, family, scheme, h);
        }
    }
    out.push_str(
        "# HELP bda_engine_gauge Engine occupancy gauges sampled at wakeup boundaries.\n# TYPE bda_engine_gauge gauge\n",
    );
    for (scheme, hub) in hubs {
        for (gauge, s) in hub.gauges.iter() {
            for (stat, v) in [
                ("last", s.last as f64),
                ("min", s.min() as f64),
                ("max", s.max as f64),
                ("mean", s.mean()),
            ] {
                out.push_str(&format!(
                    "bda_engine_gauge{{scheme=\"{}\",gauge=\"{}\",stat=\"{stat}\"}} {v}\n",
                    escape(scheme),
                    gauge.name()
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Minimal JSON parsing + schema validation (no external dependencies).
// ---------------------------------------------------------------------

/// A parsed JSON value — just enough structure for schema validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`; validation only checks type).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| self.err("bad utf8"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one
                    // piece: both are ASCII, so the run ends on a UTF-8
                    // boundary, and only the run is checked.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("bad utf8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parse a JSON document (strict enough for schema validation).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

fn require_num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    match obj.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        Some(_) => Err(format!("{ctx}.{key} is not a number")),
        None => Err(format!("{ctx}.{key} is missing")),
    }
}

fn require_histogram(doc: &Json, key: &str) -> Result<(), String> {
    let h = doc
        .get(key)
        .ok_or_else(|| format!("missing histogram '{key}'"))?;
    for field in ["count", "sum", "min", "max", "p50", "p90", "p99", "p999"] {
        require_num(h, field, key)?;
    }
    let (min, max) = (require_num(h, "min", key)?, require_num(h, "max", key)?);
    let (p50, p999) = (require_num(h, "p50", key)?, require_num(h, "p999", key)?);
    if require_num(h, "count", key)? > 0.0 && !(min <= p50 && p50 <= p999 && p999 <= max) {
        return Err(format!("{key}: quantiles out of order"));
    }
    Ok(())
}

/// Validate one `bda-obs/v1` document (as written by [`to_json`]):
/// structure, key completeness, and basic ordering invariants. Returns
/// the parsed scheme name on success.
pub fn validate(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => return Err(format!("unknown schema '{s}', expected '{SCHEMA}'")),
        _ => return Err("missing 'schema' string".into()),
    }
    let scheme = match doc.get("scheme") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err("missing 'scheme' string".into()),
    };
    let completed = require_num(&doc, "completed", "$")?;
    let found = require_num(&doc, "found", "$")?;
    require_num(&doc, "abandoned", "$")?;
    if found > completed {
        return Err("found exceeds completed".into());
    }
    let phases = doc.get("phases").ok_or("missing 'phases' object")?;
    for phase in Phase::ALL {
        let p = phases
            .get(phase.name())
            .ok_or_else(|| format!("phases.{} is missing", phase.name()))?;
        let access = require_num(p, "access", phase.name())?;
        let tuning = require_num(p, "tuning", phase.name())?;
        require_num(p, "count", phase.name())?;
        if tuning > access {
            return Err(format!("phases.{}: tuning exceeds access", phase.name()));
        }
    }
    for key in ["access", "tuning", "retry_depth"] {
        require_histogram(&doc, key)?;
    }
    let gauges = doc.get("gauges").ok_or("missing 'gauges' object")?;
    for gauge in Gauge::ALL {
        let g = gauges
            .get(gauge.name())
            .ok_or_else(|| format!("gauges.{} is missing", gauge.name()))?;
        for field in ["last", "min", "max", "mean", "samples"] {
            require_num(g, field, gauge.name())?;
        }
    }
    if let Some(timeline) = doc.get("timeline") {
        validate_timeline(timeline, completed, found)?;
    }
    Ok(scheme)
}

const WINDOW_COUNTERS: [&str; 11] = [
    "completions",
    "found",
    "abandoned",
    "corrupt_reads",
    "stale_restarts",
    "version_skews",
    "access",
    "tuning",
    "wake_batches",
    "in_flight_high",
    "busy_ticks",
];

fn validate_window_stats(w: &Json, ctx: &str) -> Result<(), String> {
    for field in WINDOW_COUNTERS {
        require_num(w, field, ctx)?;
    }
    if require_num(w, "tuning", ctx)? > require_num(w, "access", ctx)? {
        return Err(format!("{ctx}: tuning exceeds access"));
    }
    let phases = w
        .get("phases")
        .ok_or_else(|| format!("{ctx}.phases is missing"))?;
    for phase in Phase::ALL {
        let p = phases
            .get(phase.name())
            .ok_or_else(|| format!("{ctx}.phases.{} is missing", phase.name()))?;
        for field in ["access", "tuning", "count"] {
            require_num(p, field, phase.name())?;
        }
    }
    Ok(())
}

/// Validate a `timeline` block against the document's aggregate
/// counters: structure, completeness, and the collector's exactness
/// invariant (window sums + the evicted fold = aggregates).
fn validate_timeline(timeline: &Json, completed: f64, found: f64) -> Result<(), String> {
    if require_num(timeline, "window_width", "timeline")? < 1.0 {
        return Err("timeline.window_width must be at least 1".into());
    }
    require_num(timeline, "retain", "timeline")?;
    require_num(timeline, "watermark", "timeline")?;
    let evicted = timeline
        .get("evicted")
        .ok_or("timeline.evicted is missing")?;
    validate_window_stats(evicted, "timeline.evicted")?;
    let windows = match timeline.get("windows") {
        Some(Json::Arr(items)) => items,
        Some(_) => return Err("timeline.windows is not an array".into()),
        None => return Err("timeline.windows is missing".into()),
    };
    let mut sum_completed = require_num(evicted, "completions", "timeline.evicted")?;
    let mut sum_found = require_num(evicted, "found", "timeline.evicted")?;
    let mut last_id = -1.0f64;
    for (i, w) in windows.iter().enumerate() {
        let ctx = format!("timeline.windows[{i}]");
        let id = require_num(w, "id", &ctx)?;
        if id <= last_id {
            return Err(format!("{ctx}: window ids are not strictly increasing"));
        }
        last_id = id;
        validate_window_stats(w, &ctx)?;
        sum_completed += require_num(w, "completions", &ctx)?;
        sum_found += require_num(w, "found", &ctx)?;
    }
    if sum_completed != completed {
        return Err(format!(
            "timeline: window completions sum to {sum_completed}, document says {completed}"
        ));
    }
    if sum_found != found {
        return Err(format!(
            "timeline: window found sum to {sum_found}, document says {found}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::PhaseSpans;

    fn sample_hub() -> MetricsHub {
        let mut hub = MetricsHub::new();
        let mut spans = PhaseSpans::new();
        spans.add(Phase::InitialProbe, 10, 10);
        spans.add(Phase::Doze, 40, 0);
        spans.add(Phase::DataRead, 50, 50);
        hub.complete(100, 60, 1, true, false, Some(&spans));
        hub.complete(220, 75, 0, false, true, Some(&spans));
        hub.gauges.record(Gauge::InFlight, 3);
        hub.gauges.record(Gauge::SlabOccupancy, 4);
        hub.gauges.record(Gauge::WakeupQueueDepth, 2);
        hub.gauges.record(Gauge::FreeListLen, 1);
        hub
    }

    #[test]
    fn emitted_json_round_trips_through_the_validator() {
        let hub = sample_hub();
        let json = to_json("flat", &hub);
        assert_eq!(validate(&json).unwrap(), "flat");
        // Scheme names with JSON-special characters survive escaping.
        let weird = to_json("sch\"eme\\x", &hub);
        assert_eq!(validate(&weird).unwrap(), "sch\"eme\\x");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let hub = sample_hub();
        let good = to_json("flat", &hub);
        assert!(validate(&good.replace("bda-obs/v1", "bda-obs/v0")).is_err());
        assert!(validate(&good.replace("\"doze\"", "\"dose\"")).is_err());
        assert!(validate(&good.replace("\"retry_depth\"", "\"retries\"")).is_err());
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        assert!(validate(&format!("{good} trailing")).is_err());
    }

    fn windowed_hub() -> MetricsHub {
        use crate::timeseries::{Completion, WindowSpec};
        let mut hub = sample_hub();
        // Rebuild the two completions through the windowed path so the
        // timeline block agrees with the aggregates recorded above.
        let mut windowed = MetricsHub::new();
        windowed.enable_windows(WindowSpec::new(64));
        let mut spans = PhaseSpans::new();
        spans.add(Phase::InitialProbe, 10, 10);
        spans.add(Phase::Doze, 40, 0);
        spans.add(Phase::DataRead, 50, 50);
        for (end_tick, access, tuning, retries, found, abandoned) in [
            (100u64, 100u64, 60u64, 1u32, true, false),
            (320, 220, 75, 0, false, true),
        ] {
            windowed.complete_at(
                &Completion {
                    end_tick,
                    access,
                    tuning,
                    retries,
                    stale_restarts: 0,
                    version_skews: 0,
                    found,
                    abandoned,
                },
                Some(&spans),
            );
        }
        windowed.windows.as_mut().unwrap().record_batch(0, 2);
        hub.windows = windowed.windows;
        hub
    }

    #[test]
    fn timeline_block_round_trips_through_the_validator() {
        let hub = windowed_hub();
        let json = to_json("flat", &hub);
        assert!(
            json.contains("\"timeline\""),
            "timeline block missing:\n{json}"
        );
        assert_eq!(validate(&json).unwrap(), "flat");
    }

    #[test]
    fn validator_rejects_inconsistent_or_malformed_timelines() {
        let hub = windowed_hub();
        let good = to_json("flat", &hub);
        // Window sums must equal the aggregates exactly.
        let skewed = good.replacen("\"completions\":1", "\"completions\":2", 1);
        assert_ne!(skewed, good);
        let err = validate(&skewed).unwrap_err();
        assert!(err.contains("completions"), "unexpected error: {err}");
        // Structural damage inside a window is caught.
        assert!(validate(&good.replace("\"busy_ticks\"", "\"busy\"")).is_err());
        assert!(validate(&good.replace("\"window_width\":64", "\"window_width\":0")).is_err());
        // A future schema version is rejected outright, timeline or not.
        let v2 = good.replace("bda-obs/v1", "bda-obs/v2");
        let err = validate(&v2).unwrap_err();
        assert!(
            err.contains("unknown schema 'bda-obs/v2'"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = parse_json("{\"a\": [1, 2.5, {\"b\": \"x\\ny\"}, true, null]}").unwrap();
        let arr = match v.get("a") {
            Some(Json::Arr(items)) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(arr[0], Json::Num(1.0));
        assert_eq!(arr[1], Json::Num(2.5));
        assert_eq!(arr[2].get("b"), Some(&Json::Str("x\ny".into())));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Null);
        // Multi-byte characters around escapes pass through unchanged.
        assert_eq!(
            parse_json("\"θ → \\\"q\\\" ✓\"").unwrap(),
            Json::Str("θ → \"q\" ✓".into())
        );
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("\"unterminated").is_err());
    }

    #[test]
    fn prometheus_text_contains_every_family() {
        let hub = sample_hub();
        let text = to_prometheus(&[("flat", &hub)]);
        for needle in [
            "bda_queries_total{scheme=\"flat\"} 2",
            "bda_phase_access_bytes_total{scheme=\"flat\",phase=\"doze\"} 80",
            "bda_access_bytes{scheme=\"flat\",quantile=\"0.99\"}",
            "bda_access_bytes_count{scheme=\"flat\"} 2",
            "bda_engine_gauge{scheme=\"flat\",gauge=\"in_flight\",stat=\"last\"} 3",
            "# TYPE bda_retry_depth summary",
        ] {
            assert!(text.contains(needle), "missing '{needle}' in:\n{text}");
        }
    }
}
