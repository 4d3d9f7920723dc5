//! The run's verdict and metrics, printed as the last line of stdout.

use std::fmt::Write as _;

/// Operations attempted and failed, problems found, and the metrics of one
/// run, in the order they were added.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Count `attempted` checked operations of which `failed` went wrong;
    /// `what` names them in the message a failure leaves on stderr.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problem(format!("{failed} of {attempted} {}", what()));
        }
    }

    /// An exact counter that differed between two repetitions at one
    /// seed: one failed operation, and the run is not correct.
    pub fn diverged(&mut self, counter: &str, scheme: &str, pass: u64) {
        self.failed += 1;
        self.problem(format!(
            "deterministic counter `{counter}` diverged on {scheme} in pass {pass}"
        ));
    }

    fn problem(&mut self, message: String) {
        eprintln!("perfbench: {message}");
        self.problems.push(message);
    }

    /// The result object. Fails if a metric is not a finite number, which
    /// JSON cannot carry.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bda_obs::export::{parse_json, Json};

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut r = Report::default();
        r.tally(10, 0, || "requests".into());
        r.metric("setup_s", 0.8127, "s");
        r.metric("access_ticks_mean", 1851744.25, "ticks");
        let line = r.result_line().unwrap();
        let doc = parse_json(&line).unwrap();
        assert!(matches!(doc.get("correct"), Some(Json::Bool(true))));
        assert!(matches!(doc.get("attempted"), Some(Json::Num(n)) if *n == 10.0));
        let m = doc.get("metrics").unwrap();
        let setup = m.get("setup_s").unwrap();
        assert!(matches!(setup.get("value"), Some(Json::Num(v)) if *v == 0.8127));
        assert!(matches!(setup.get("unit"), Some(Json::Str(u)) if u == "s"));
    }

    #[test]
    fn failures_and_divergence_make_the_run_incorrect() {
        let mut r = Report::default();
        r.tally(100, 2, || "sampled replays".into());
        assert!(r.result_line().unwrap().starts_with("{\"correct\": false"));
        let mut r = Report::default();
        r.tally(100, 0, || "requests".into());
        r.diverged("events", "flat", 2);
        let line = r.result_line().unwrap();
        assert!(line.contains("\"failed\": 1"), "{line}");
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let mut r = Report::default();
        r.metric("x", f64::NAN, "s");
        assert!(r.result_line().is_err());
    }
}
