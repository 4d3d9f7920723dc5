//! The experiment binaries end to end: each names the CSV files it
//! actually wrote, and a CSV it cannot write fails it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A path under the system temp directory, unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bda-bench-csv-{}-{name}", std::process::id()))
}

/// `fig6 --quick --quiet` with its CSVs going under `target_dir`.
fn fig6(target_dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(["--quick", "--quiet"])
        .env("CARGO_TARGET_DIR", target_dir)
        .output()
        .expect("fig6 runs")
}

#[test]
fn a_failed_csv_write_fails_the_binary_and_names_the_path() {
    // A regular file where the target directory should be: nothing can
    // be created under it.
    let blocker = scratch("blocker");
    std::fs::write(&blocker, "not a directory").unwrap();
    let out = fig6(&blocker);
    std::fs::remove_file(&blocker).unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    let csv = blocker
        .join("experiments")
        .join("fig6a_access_vs_ratio.csv");
    assert!(err.contains(&csv.display().to_string()), "{err}");
}

#[test]
fn the_binary_prints_the_paths_it_wrote() {
    let dir = scratch("target");
    let out = fig6(&dir);
    let written: Vec<PathBuf> = ["fig6a_access_vs_ratio", "fig6b_tuning_vs_ratio"]
        .iter()
        .map(|name| dir.join("experiments").join(format!("{name}.csv")))
        .collect();
    let all_written = written.iter().all(|p| p.is_file());
    std::fs::remove_dir_all(&dir).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(all_written, "{stdout}");
    let line = format!("(csv: {}, {})", written[0].display(), written[1].display());
    assert!(stdout.contains(&line), "{stdout}");
}
