//! Result formatting: aligned console tables and CSV files.

use std::path::{Path, PathBuf};

use bda_obs::{ProgressSink, Severity};

/// A simple table: header row plus data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numbers, left-align text.
                if c.parse::<f64>().is_ok() {
                    line.push_str(&format!("{c:>w$}"));
                } else {
                    line.push_str(&format!("{c:<w$}"));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Write each `(table, name)` as `<name>.csv` under [`experiments_dir`]
/// and print the paths written, `(csv: …)`. The first failed write is
/// reported to `progress` as an error naming the path, and returned.
pub fn write_csvs(progress: &dyn ProgressSink, tables: &[(&Table, &str)]) -> std::io::Result<()> {
    let dir = experiments_dir();
    let mut written = Vec::with_capacity(tables.len());
    for (table, name) in tables {
        let path = dir.join(format!("{name}.csv"));
        let write =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, table.to_csv()));
        if let Err(err) = write {
            let message = format!("cannot write {}: {err}", path.display());
            progress.emit(Severity::Error, &message);
            return Err(err);
        }
        written.push(path.display().to_string());
    }
    println!("\n(csv: {})", written.join(", "));
    Ok(())
}

/// `target/experiments/` resolved against the cargo target dir if known.
pub fn experiments_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return Path::new(&dir).join("experiments");
    }
    // Fall back to ./target/experiments relative to the workspace root (or
    // cwd when run elsewhere).
    let mut p = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if p.join("Cargo.toml").exists() {
            return p.join("target").join("experiments");
        }
        if !p.pop() {
            return PathBuf::from("target/experiments");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["scheme", "At", "Tt"]);
        t.row(vec!["flat".into(), "123456".into(), "123456".into()]);
        t.row(vec!["hashing".into(), "99".into(), "7".into()]);
        t
    }

    #[test]
    fn render_is_aligned() {
        let r = sample().render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("scheme"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric columns right-aligned: the At cells end at the same column.
        let at_end_row1 = lines[2].find("123456").unwrap() + 6;
        let at_end_row2 = lines[3].find("99").unwrap() + 2;
        assert_eq!(at_end_row1, at_end_row2);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new(&["x"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
