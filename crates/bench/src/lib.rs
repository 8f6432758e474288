//! # swf-bench
//!
//! The paper's evaluation as one table of scenarios ([`suite`]): each row
//! defines an experiment's parameters once and yields its machine-readable
//! record ([`record`]) and its human report (the `*_report` renderers
//! here, printing the reproduced rows, the fitted slopes, and the
//! paper-reported values side by side). The `suite` binary runs the table,
//! or the rows chosen with `--only`, and writes the `BENCH_*.json` document
//! that `suite compare` gates future changes against. The fault-injection
//! seed sweeps ([`chaos`]) are rows of the same table, under its `chaos`
//! label.

#![warn(missing_docs)]

pub mod ablations;
pub mod apps;
pub mod chaos;
pub mod elastic;
pub mod record;
pub mod suite;

pub use record::ScenarioMeter;

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

use swf_core::experiments::{ColdStartResult, Fig1Result, Fig2Result, Fig5Result, Fig6Result};
use swf_metrics::Table;

/// The value of a `--name <value>` (or `--name=<value>`) flag. Exits with
/// an error when the flag is present without a value, so the mistake
/// surfaces before the experiment runs rather than as a silently ignored
/// flag.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let eq = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == name {
            match args.get(i + 1) {
                Some(v) if !v.starts_with('-') => return Some(v.clone()),
                _ => {
                    eprintln!("error: {name} requires a value");
                    std::process::exit(2);
                }
            }
        }
        if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

/// The first of `args` that is neither one of the calling binary's flags
/// nor a flag's value. `switches` stand alone; `valued` flags take a value
/// (`--flag <v>` or `--flag=<v>`), which is never itself read as a flag.
pub fn unknown_argument<'a>(
    args: &'a [String],
    switches: &[&str],
    valued: &[&str],
) -> Option<&'a str> {
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        if valued.contains(&name) {
            if !inline_value {
                args.next();
            }
        } else if !switches.contains(&arg.as_str()) {
            return Some(arg);
        }
    }
    None
}

/// Exit 2, naming the culprit and the valid flags, when
/// [`unknown_argument`] finds one: a misspelt or retired flag must not run
/// the default experiment.
pub fn refuse_unknown_arguments(args: &[String], switches: &[&str], valued: &[&str]) {
    if let Some(arg) = unknown_argument(args, switches, valued) {
        eprintln!(
            "error: unknown argument {arg:?}; flags are {}",
            [switches, valued].concat().join(", ")
        );
        std::process::exit(2);
    }
}

/// Set once a write to stdout has failed; later output is dropped.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write to stdout, the way `print!` does, except that a reader that
/// stopped reading (`suite … | head -1`) ends the printing, not the run:
/// a failed write drops this and every later line, and the binary still
/// writes its records and exits with the code its run or comparison
/// decided. Any failure other than a closed pipe is reported once on
/// stderr. Use through [`outln!`].
pub fn print_out(args: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
        }
    }
}

/// `println!` through [`print_out`]: survives a closed stdout.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::print_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Parse the common `--quick` flag.
pub fn is_quick() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Merge labelled span collectors into one Chrome-trace JSON array
/// (Perfetto / `chrome://tracing` loadable) and write it to `path`. Each
/// label becomes a process-name prefix and each collector gets pids and
/// flow ids of its own, so several runs coexist in one view.
pub fn write_chrome_trace(path: &str, collectors: &[(&str, &swf_obs::Obs)]) -> std::io::Result<()> {
    let mut trace = swf_obs::ChromeTraceWriter::new(String::new());
    for (label, obs) in collectors {
        obs.with_spans(|spans| trace.group(spans, label))
            .map_err(std::io::Error::other)?;
    }
    std::fs::write(path, trace.finish().map_err(std::io::Error::other)?)
}

/// Render Fig. 1 as a table plus slope analysis.
pub fn fig1_report(r: &Fig1Result) -> String {
    let mut t = Table::new(
        "Fig. 1 — Docker vs Knative, N sequential tasks (seconds)",
        &[
            "tasks",
            "docker_total",
            "knative_total",
            "docker_exec/task",
            "knative_exec/task",
        ],
    );
    for row in &r.rows {
        t.row(&[
            row.tasks.to_string(),
            format!("{:.2}", row.docker_total),
            format!("{:.2}", row.knative_total),
            format!("{:.3}", row.docker_exec),
            format!("{:.3}", row.knative_exec),
        ]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "\nslopes: docker {:.3} s/task (R²={:.3}), knative {:.3} s/task (R²={:.3})\n",
        r.docker_fit.slope, r.docker_fit.r_squared, r.knative_fit.slope, r.knative_fit.r_squared
    ));
    s.push_str(&format!(
        "knative slope reduction vs docker: {:.1}%   [paper: up to 30%]\n",
        r.slope_reduction * 100.0
    ));
    s.push_str(&format!(
        "knative cold start: {:.2} s              [paper: 1.48 s]\n",
        r.cold_start
    ));
    s
}

/// Render Fig. 2 as a table plus slopes.
pub fn fig2_report(r: &Fig2Result) -> String {
    let mut t = Table::new(
        "Fig. 2 — k parallel tasks, makespan by venue (seconds)",
        &["tasks", "native", "knative", "container"],
    );
    for row in &r.rows {
        t.row(&[
            row.tasks.to_string(),
            format!("{:.2}", row.native),
            format!("{:.2}", row.knative),
            format!("{:.2}", row.container),
        ]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "\nslopes (s/task): native {:.3} [paper 0.28], knative {:.3} [paper 0.30], container {:.3} [paper 0.96]\n",
        r.native_fit.slope, r.knative_fit.slope, r.container_fit.slope
    ));
    s
}

/// Render Fig. 5 as the grid table (mix → makespan).
pub fn fig5_report(r: &Fig5Result) -> String {
    let mut t = Table::new(
        "Fig. 5 — performance–isolation trade-off over the mix simplex",
        &[
            "native",
            "serverless",
            "container",
            "x",
            "y",
            "slowest_makespan_s",
        ],
    );
    for row in &r.rows {
        let (x, y) = row.mix.to_cartesian();
        t.row(&[
            format!("{:.2}", row.mix.native),
            format!("{:.2}", row.mix.serverless),
            format!("{:.2}", row.mix.container),
            format!("{x:.3}"),
            format!("{y:.3}"),
            format!("{:.1}", row.makespan),
        ]);
    }
    let mut s = t.render();
    if let (Some(best), Some(worst)) = (r.best(), r.worst()) {
        s.push_str(&format!(
            "\nbest mix: native={:.2} serverless={:.2} container={:.2} at {:.1}s\n",
            best.mix.native, best.mix.serverless, best.mix.container, best.makespan
        ));
        s.push_str(&format!(
            "worst mix: native={:.2} serverless={:.2} container={:.2} at {:.1}s\n",
            worst.mix.native, worst.mix.serverless, worst.mix.container, worst.makespan
        ));
    }
    let traced: Vec<_> = r
        .rows
        .iter()
        .zip(&r.breakdowns)
        .filter_map(|(row, b)| b.as_ref().map(|cp| (row.mix, cp)))
        .collect();
    if !traced.is_empty() {
        s.push_str("\nWhere the time goes (critical path of the slowest workflow, rep 0):\n");
        for (mix, cp) in traced {
            let label = format!(
                "native={:.2} serverless={:.2} container={:.2}",
                mix.native, mix.serverless, mix.container
            );
            s.push('\n');
            s.push_str(&swf_core::render_mix_breakdown(&label, cp));
        }
    }
    s
}

/// Render Fig. 6 as the five paper bars.
pub fn fig6_report(r: &Fig6Result) -> String {
    let mut t = Table::new(
        "Fig. 6 — average makespan of the slowest workflow, five mixes",
        &["scenario", "makespan_s", "vs_native", "paper"],
    );
    let paper_hint = |label: &str| match label {
        "all-native" => "≈250 s (fastest)",
        "half-serverless-half-native" => "2nd fastest",
        "all-serverless" => "1.08× native",
        "half-container-half-native" => "4th",
        "all-container" => "slowest",
        _ => "",
    };
    for row in &r.rows {
        t.row(&[
            row.label.to_string(),
            format!("{:.1}", row.makespan),
            format!("{:.2}x", row.vs_native),
            paper_hint(row.label).to_string(),
        ]);
    }
    let mut s = t.render();
    let traced: Vec<_> = r
        .rows
        .iter()
        .filter_map(|row| row.breakdown.as_ref().map(|cp| (row.label, cp)))
        .collect();
    if !traced.is_empty() {
        s.push_str("\nWhere the time goes (critical path of the slowest workflow, rep 0):\n");
        for (label, cp) in traced {
            s.push('\n');
            s.push_str(&swf_core::render_mix_breakdown(label, cp));
        }
    }
    s
}

/// Render the §III-B cold-start measurement.
pub fn coldstart_report(r: &ColdStartResult) -> String {
    format!(
        "## §III-B cold start\n\
         first request (cold): {:.3} s\n\
         cold start (minus compute): {:.3} s   [paper: 1.48 s]\n\
         warm request: {:.3} s\n",
        r.first_request, r.cold_start, r.warm_request
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_core::experiments::{Fig1Row, Fig6Row};
    use swf_metrics::{Line, MixPoint};

    #[test]
    fn unknown_arguments_are_refused() {
        let unknown = |line: &str| {
            let args: Vec<String> = line.split(' ').map(String::from).collect();
            let switches = ["--quick", "-q", "--list"];
            let valued = ["--label", "--only", "--json", "--trace-out"];
            unknown_argument(&args, &switches, &valued).map(String::from)
        };
        for good in [
            "--quick --label chaos --only heavy,rescue --list",
            "-q --only=fig6 --json=out.json --trace-out t.json",
            // A flag's value is never read as a flag.
            "--json --heavy",
        ] {
            assert_eq!(unknown(good), None, "{good}");
        }
        assert_eq!(unknown_argument(&[], &["-q"], &[]), None);
        for (bad, culprit) in [
            ("--quick --heavy", "--heavy"),
            ("--labels apps", "--labels"),
            ("--list=yes", "--list=yes"),
            ("--label chaos rescue", "rescue"),
            // The retired sweep binary's flags: the lists are the caller's
            // own.
            ("--label chaos --seeds 5..6", "--seeds"),
            ("--quick --rescue", "--rescue"),
        ] {
            assert_eq!(unknown(bad).as_deref(), Some(culprit), "{bad}");
        }
    }

    #[test]
    fn fig1_report_contains_slopes_and_paper_refs() {
        let r = Fig1Result {
            rows: vec![Fig1Row {
                tasks: 160,
                docker_total: 100.0,
                knative_total: 78.0,
                docker_exec: 0.458,
                knative_exec: 0.458,
            }],
            docker_fit: Line {
                slope: 0.625,
                intercept: 0.0,
                r_squared: 1.0,
            },
            knative_fit: Line {
                slope: 0.478,
                intercept: 1.48,
                r_squared: 1.0,
            },
            slope_reduction: 0.235,
            cold_start: 1.48,
        };
        let s = fig1_report(&r);
        assert!(s.contains("160"));
        assert!(s.contains("23.5%"));
        assert!(s.contains("1.48"));
    }

    #[test]
    fn fig6_report_lists_all_bars() {
        let rows = vec![
            ("all-native", 250.0, 1.0),
            ("half-serverless-half-native", 258.0, 1.03),
            ("all-serverless", 270.0, 1.08),
            ("half-container-half-native", 280.0, 1.12),
            ("all-container", 310.0, 1.24),
        ];
        let r = Fig6Result {
            rows: rows
                .into_iter()
                .map(|(label, m, v)| Fig6Row {
                    label,
                    mix: MixPoint::new(1.0, 0.0, 0.0),
                    makespan: m,
                    vs_native: v,
                    breakdown: None,
                    obs: swf_obs::Obs::disabled(),
                })
                .collect(),
        };
        let s = fig6_report(&r);
        assert!(s.contains("all-container"));
        assert!(s.contains("1.08x"));
    }
}
