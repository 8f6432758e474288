//! The benchmark suite and its exact gate.
//!
//! Run the scenario table (`swf_bench::suite`) — by default the six
//! figure scenarios fig1, fig2, fig5, fig6, coldstart, ablations — with
//! span collection on: print the §V-A setup header and each scenario's
//! report (reproduced rows beside the paper's values), and write one
//! machine-readable `BENCH_<label>.json` at the workspace root —
//! per-scenario virtual-time results, swf-obs metrics/critical-path
//! snapshots, and the executor's event counts. The document is a pure
//! function of program and seed, byte for byte. Or compare two recorded
//! documents: any leaf that differs is drift, and drift exits 1.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p swf-bench --bin suite -- [--quick] [--label <l>] [--only <name>[,<name>…]] [--json <path>] [--trace-out <path>] [--spans-out <path>] [--series-out <path>]
//! cargo run --release -p swf-bench --bin suite -- --list
//! cargo run --release -p swf-bench --bin suite -- compare <old.json> <new.json>
//! ```
//!
//! `--only fig6` (or `--only fig2,coldstart`) runs just those scenarios
//! of the label: the way to regenerate one figure. A name the label does
//! not run exits 2 listing the ones it does. `--label apps` runs the
//! swf-apps scenario (every application × every venue) instead of the
//! figure scenarios, writing `BENCH_apps.json`; `--label elastic`
//! likewise. `--label chaos` runs the four fault sweeps (`chaos`,
//! `rescue`, `heavy`, `heavy-spot`); a rescue sweep that leaves a
//! workflow incomplete fails the run (exit 1) after its record, its
//! failing plans and its final rescue DAGs are written. `--list`
//! enumerates every label and its scenarios. An unknown label or argument
//! also exits 2 before anything runs: a typo must not run the figure
//! scenarios. `compare` takes two paths and nothing else.
//!
//! `--trace-out` additionally writes every scenario run as one
//! Chrome-trace file. `--spans-out` writes the lossless `swf-spans/v1`
//! export — the `obsq` query CLI's input. `--series-out` writes every
//! scenario's sampled telemetry time series. All three are deterministic:
//! running the suite twice produces byte-identical files.

use swf_bench::record::workspace_root;
use swf_bench::suite::{check_label, run_suite, scenario_names, select, suite_config, LABELS};
use swf_bench::{flag_value, is_quick, outln, refuse_unknown_arguments, write_chrome_trace};
use swf_core::experiments::setup_header;

/// Flags that stand alone and flags that take a value. Their readers are
/// this file and `swf_bench`'s `flag_value` and `is_quick`: a flag they
/// learn belongs here too, or it is refused.
const SWITCHES: [&str; 3] = ["--quick", "-q", "--list"];
const VALUED: [&str; 6] = [
    "--label",
    "--only",
    "--json",
    "--trace-out",
    "--spans-out",
    "--series-out",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        compare_main(&args[1..]);
        return;
    }
    refuse_unknown_arguments(&args, &SWITCHES, &VALUED);
    if args.iter().any(|a| a == "--list") {
        list_main();
        return;
    }
    run_main();
}

fn list_main() {
    outln!("## suite — labels and their scenarios");
    for (label, note) in LABELS {
        outln!("  {label:<7} {}", scenario_names(label).join(", "));
        outln!("  {:<7}   {note}", "");
    }
    outln!("run one label with: suite [--quick] --label <label>");
    outln!("run chosen scenarios with: suite [--quick] --only <name>[,<name>…]");
}

fn run_main() {
    let quick = is_quick();
    let label =
        flag_value("--label").unwrap_or_else(|| if quick { "quick" } else { "paper" }.to_string());
    if let Err(e) = check_label(&label) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let names = match flag_value("--only") {
        Some(only) => select(&label, &only).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        None => scenario_names(&label),
    };
    outln!("{}", setup_header(&suite_config(quick)));
    let run = run_suite(&label, quick, &names, |name| {
        eprintln!(
            "suite: running {name} ({})",
            if quick { "quick" } else { "paper" }
        );
    });
    for report in &run.reports {
        outln!("{report}");
    }

    // Per-scenario host summary.
    outln!("## suite — executor work per scenario");
    if let Some(scenarios) = run.document.get("scenarios").and_then(|s| s.as_object()) {
        for (name, scenario) in scenarios.iter() {
            let host = &scenario["host"];
            outln!(
                "  {name:<10} events={:<9} peak_ready_queue={}",
                host["events_processed"].as_u64().unwrap_or(0),
                host["peak_ready_queue"].as_u64().unwrap_or(0),
            );
        }
    }
    outln!(
        "  total      events={}",
        run.document["host"]["events_processed"]
            .as_u64()
            .unwrap_or(0)
    );

    let path = flag_value("--json").unwrap_or_else(|| {
        workspace_root()
            .join(format!("BENCH_{label}.json"))
            .to_string_lossy()
            .into_owned()
    });
    if let Err(e) = std::fs::write(&path, run.document.to_string()) {
        eprintln!("error: failed to write {path}: {e}");
        std::process::exit(1);
    }
    outln!("bench record written to {path}");

    let refs: Vec<(&str, &swf_obs::Obs)> = run
        .collectors
        .iter()
        .map(|(l, o)| (l.as_str(), o))
        .collect();
    if let Some(trace_path) = flag_value("--trace-out") {
        match write_chrome_trace(&trace_path, &refs) {
            Ok(()) => outln!("chrome trace written to {trace_path}"),
            Err(e) => {
                eprintln!("error: failed to write chrome trace to {trace_path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(spans_path) = flag_value("--spans-out") {
        let doc = swf_obs::spans_to_json(&refs);
        if let Err(e) = std::fs::write(&spans_path, doc.to_string()) {
            eprintln!("error: failed to write spans to {spans_path}: {e}");
            std::process::exit(1);
        }
        outln!("span export written to {spans_path}");
    }
    if let Some(series_path) = flag_value("--series-out") {
        let doc = swf_bench::record::series_json(&refs);
        if let Err(e) = std::fs::write(&series_path, doc.to_string()) {
            eprintln!("error: failed to write series to {series_path}: {e}");
            std::process::exit(1);
        }
        outln!("series export written to {series_path}");
    }
    if !run.failures.is_empty() {
        for failure in &run.failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}

fn read_doc(path: &str) -> serde_json::Value {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e:?}");
            std::process::exit(2);
        }
    }
}

fn compare_main(args: &[String]) {
    let [old_path, new_path] = args else {
        match args.get(2) {
            Some(extra) => {
                eprintln!("error: unknown argument {extra:?}; compare takes two paths and no flags")
            }
            None => eprintln!("usage: suite compare <old.json> <new.json>"),
        }
        std::process::exit(2);
    };

    let old = read_doc(old_path);
    let new = read_doc(new_path);
    // The threshold reaches only wall-clock leaves, which no document
    // this workspace writes has.
    let report = swf_metrics::compare(&old, &new, 0.10);
    outln!("## suite compare — {old_path} vs {new_path}");
    swf_bench::print_out(format_args!("{}", report.render()));
    if report.has_drift() {
        eprintln!("FAIL: drift — the simulation's results or the executor's work changed");
    }
    std::process::exit(report.exit_code());
}
