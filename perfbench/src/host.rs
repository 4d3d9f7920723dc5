//! What ran where: the host block of the run record, and the process's
//! peak resident memory.

use std::process::Command;

/// Peak resident set size (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident memory in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = parse_vmhwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The git revision of the working directory's own repository. Lookups
/// stop at the working directory, so a checkout without `.git` that sits
/// inside some other repository reports `None` rather than that one's
/// revision.
fn git_revision() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent()?.to_path_buf();
    first_line_of(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The host block as a JSON object: nproc, CPU model, compiler, build
/// profile and git revision (`"unknown"` where a lookup fails).
pub fn host_block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"git\": {}}}",
        json_str(&cpu_model().unwrap_or_else(unknown)),
        json_str(&first_line_of(Command::new("rustc").arg("-V")).unwrap_or_else(unknown)),
        json_str(profile),
        json_str(&git_revision().unwrap_or_else(unknown)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_is_read_from_its_own_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n";
        assert_eq!(parse_vmhwm_kib(status), Some(123_456));
    }

    #[test]
    fn vmhwm_missing_or_malformed_is_none() {
        assert_eq!(parse_vmhwm_kib("VmRSS:\t 100 kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vmhwm_kib("VmHWM:\t 100 MB\n"), None);
        assert_eq!(parse_vmhwm_kib(""), None);
    }

    #[test]
    fn host_block_is_a_json_object_with_every_field() {
        let block = host_block();
        for key in ["nproc", "cpu", "rustc", "profile", "git"] {
            assert!(block.contains(&format!("\"{key}\": ")), "{block}");
        }
        bda_obs::export::parse_json(&block).expect("host block parses as JSON");
    }
}
