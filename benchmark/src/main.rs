//! The benchmark of record for the serverless-HPC-workflows simulator.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! benchmark all [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out <file>]
//! benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload in this process and prints, last, one
//! JSON line with `correct`, `attempted`, `failed` and `metrics`. `all` runs
//! the six workloads, one child process each, prints every metric by name
//! with its unit and writes a result file. `compare` judges one result file
//! against another. See `README.md` beside this package.

mod compare;
mod drive;
mod host;
mod isolate;
mod layers;
mod metrics;
mod report;
mod runner;
mod stats;
mod tracer;
mod workload;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use serde_json::{json, Map, Value};

use runner::RunArgs;

/// Seconds each workload measures for unless told otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Options shared by the run forms.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    setup_probe: bool,
    report: Option<PathBuf>,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        setup_probe: false,
        report: None,
        out: None,
        positional: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => options.workload = Some(value()?),
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => options.trace = true,
            "--smoke" => options.smoke = true,
            "--setup-probe" => options.setup_probe = true,
            "--report" => options.report = Some(PathBuf::from(value()?)),
            "--out" => options.out = Some(PathBuf::from(value()?)),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => options.positional.push(arg.clone()),
        }
    }
    Ok(options)
}

impl Options {
    /// Smoke runs measure one pass per workload unless told otherwise.
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.0 } else { DEFAULT_SECONDS })
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse(&args).and_then(
            |options| match options.positional.first().map(String::as_str) {
                Some("all") => all(&options),
                Some("compare") => compare_files(&options),
                Some(other) => Err(format!("unknown command {other}")),
                None => one(&options, process_start),
            },
        );
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            eprintln!(
                "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       benchmark all [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out <file>]\n       benchmark compare <A.json> <B.json>",
                workloads::NAMES.join("|")
            );
            ExitCode::from(2)
        }
    }
}

/// Run one workload in this process.
fn one(options: &Options, process_start: Instant) -> Result<bool, String> {
    let workload = options
        .workload
        .clone()
        .ok_or("--workload is required (or use `all` / `compare`)")?;
    let args = RunArgs {
        workload,
        seed: options.seed,
        seconds: options.seconds(),
        trace: options.trace,
        smoke: options.smoke,
    };
    let unknown = || format!("unknown workload {}", args.workload);
    if options.setup_probe {
        let seconds = runner::setup_probe(&args, process_start).ok_or_else(unknown)?;
        println!("{seconds}");
        return Ok(true);
    }
    let report = runner::run(&args, process_start).ok_or_else(unknown)?;
    print!("{}", report::render(&report));
    match &options.report {
        // Under `all`: the parent reads the full record from the file.
        Some(path) => std::fs::write(path, report.to_json().to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?,
        None => println!("{}", report.contract_line()),
    }
    Ok(report.correct())
}

/// Run every workload, one child process each, and write the result file.
fn all(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out_dir = host::out_dir();
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut runs = vec![false];
    if options.trace {
        runs.push(true);
    }
    let mut ok = true;
    let mut workloads_json = Map::new();
    for name in workloads::NAMES {
        let mut entry = Map::new();
        for &traced in &runs {
            let label = if traced { "traced" } else { "untraced" };
            let report_path = out_dir.join(format!("{name}.{label}.json"));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", name])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds().to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--report")
                .arg(&report_path);
            if options.smoke {
                child.arg("--smoke");
            }
            // The child's table goes straight to this terminal.
            let status = child.status().map_err(|e| format!("{name}: {e}"))?;
            ok &= status.success();
            let report = std::fs::read_to_string(&report_path)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
            match report {
                Ok(report) => {
                    entry.insert(label, report);
                }
                Err(e) => {
                    eprintln!("benchmark: {name} ({label}) left no report: {e}");
                    ok = false;
                }
            }
        }
        workloads_json.insert(name, Value::Object(entry));
    }
    let result = json!({
        "schema": "swf-benchmark/v1",
        "host": (host::describe()),
        "seed": (options.seed),
        "seconds": (options.seconds()),
        "smoke": (options.smoke),
        "workloads": (Value::Object(workloads_json)),
    });
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| out_dir.join("result.json"));
    std::fs::write(&path, report::pretty(&result))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} — result file {}",
        if ok {
            "all workloads correct"
        } else {
            "SOME WORKLOADS FAILED"
        },
        path.display()
    );
    Ok(ok)
}

/// `compare A B`.
fn compare_files(options: &Options) -> Result<bool, String> {
    let [_, old, new] = &options.positional[..] else {
        return Err("compare takes two result files".to_string());
    };
    let mut table = String::new();
    let ok = compare::compare(old.as_ref(), new.as_ref(), &mut table)?;
    print!("{table}");
    Ok(ok)
}
