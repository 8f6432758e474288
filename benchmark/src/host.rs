//! What the machine looked like while the benchmark ran: recorded in the
//! result file so that two runs can be told apart by more than their numbers.

use std::fs;
use std::path::{Path, PathBuf};

use serde_json::{json, Value};

/// The benchmark package's own directory (`benchmark/`). Fixed when the
/// binary is built, which happens inside the checkout it measures.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where traces and result files go (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// The commit the checkout is at, read from `.git` without running git
/// (a benchmark checkout may not be a repository at all).
fn git_commit() -> Option<String> {
    let git = package_dir().parent()?.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Machine description for the result file.
pub fn describe() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    json!({
        "nproc": nproc,
        "cpu_model": (cpu_model()),
        "load_average_1m": load,
        "git_commit": (git_commit()),
    })
}
