//! The `bda-cli` binary end to end: flags a command refuses, a reader
//! that goes away mid-report, and the documents `--metrics-out` and
//! `--timeline-out` write.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Output, Stdio};

use bda_sim::SchemeKind;

fn bda_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bda-cli"))
        .args(args)
        .output()
        .expect("bda-cli runs")
}

#[test]
fn trace_and_inspect_refuse_flags_they_cannot_honour() {
    // Both show the frozen program only, which compare and simulate churn;
    // trace renders one channel, which the other three stripe.
    let cases = [
        ("trace", "--update-rate", "50", ["compare", "simulate"]),
        ("inspect", "--update-rate", "50", ["compare", "simulate"]),
        ("trace", "--channels", "2", ["inspect", "compare"]),
    ];
    for (command, flag, value, takers) in cases {
        let out = bda_cli(&[command, "--scheme", "flat", "--records", "50", flag, value]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command} {flag}: {err}");
        assert!(out.stdout.is_empty(), "{command} {flag} printed a report");
        for word in [flag].into_iter().chain(takers) {
            assert!(err.contains(word), "{command}: {err:?} lacks {word}");
        }
    }
}

#[test]
fn a_closed_pipe_ends_the_report_quietly() {
    // A 20 000-record JSON trace is megabytes, far more than a pipe
    // buffers, so the binary is still writing when the reader leaves.
    let mut child = Command::new(env!("CARGO_BIN_EXE_bda-cli"))
        .args(["trace", "--scheme", "flat", "--records", "20000", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bda-cli starts");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("one line");
    assert!(!line.is_empty(), "the report must start");
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut err)
        .expect("stderr reads");
    let status = child.wait().expect("bda-cli exits");
    assert!(!err.contains("panicked"), "{err}");
    assert!(err.is_empty(), "{err}");
    assert!(status.success(), "{status}: {err}");
}

#[test]
fn exported_documents_validate() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-exports");
    std::fs::create_dir_all(&dir).expect("test output directory");
    let path = |name: &str| dir.join(name).to_str().expect("UTF-8 path").to_owned();
    let (metrics, sim_trace) = (path("m.json"), path("s.trace.json"));
    let (prom, compare_trace) = (path("m.prom"), path("c.trace.json"));
    let runs: [&[&str]; 2] = [
        &[
            "simulate",
            "--records",
            "200",
            "--loss",
            "5",
            "--shards",
            "2",
            "--metrics-out",
            &metrics,
            "--timeline-out",
            &sim_trace,
        ],
        &[
            "compare",
            "--records",
            "200",
            "--metrics-out",
            &prom,
            "--timeline-out",
            &compare_trace,
        ],
    ];
    for args in runs {
        let out = bda_cli(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {err}");
    }
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}"));
    if let Err(e) = bda_obs::export::validate(&read(&metrics)) {
        panic!("{metrics}: {e}");
    }
    for trace in [&sim_trace, &compare_trace] {
        let events =
            bda_obs::validate_trace(&read(trace)).unwrap_or_else(|e| panic!("{trace}: {e}"));
        assert!(events > 0, "{trace}: no events");
    }
    let prom = read(&prom);
    for kind in SchemeKind::ALL {
        let label = format!("scheme=\"{}\"", kind.cli_name());
        assert!(prom.contains(&label), "the Prometheus text lacks {label}");
    }
}
