//! Chaos seed sweep: the concurrent-workflow experiment under a sampled
//! fault profile, per-seed, with the calm baseline alongside.
//!
//! Usage: `cargo run --release -p swf-bench --bin chaos
//! [--quick] [--seeds <n | a..b>] [--profile <name>] [--rescue] [--trace]
//! [--trace-out <path>] [--json <path>]`
//!
//! `--seeds <n>` sweeps seeds `0..n`, `--seeds <a>..<b>` the half-open
//! range (`--seeds 5..6` replays seed 5 alone); an empty or malformed set
//! is a usage error. `--profile` selects a named fault profile (see
//! `swf_chaos::ChaosProfile::NAMES`); an unknown name is a hard error
//! listing the valid profiles. Any other argument is refused the same way
//! (exit 2): a misspelt or retired flag must not run the default sweep.
//!
//! Prints one row per seed (faults injected, task failures, workflows
//! completed, calm vs chaos makespan) and, for any seed whose workflows
//! did not all complete, the replayable `FaultPlan` JSON. With `--rescue`
//! the sweep gives every workflow a resume budget and arms self-healing
//! (liveness probes, circuit breaker) and reports goodput per seed:
//! rescue rounds, nodes and task-seconds salvaged, task-seconds wasted.
//! Final rescue DAGs of workflows that still failed are printed and
//! embedded in the `--json` record so CI can archive them as artifacts,
//! and the sweep then exits 1: under `--rescue` completion is the
//! invariant. Without it an incomplete workflow is data and the exit
//! code stays 0.

use swf_bench::{
    dump_observability, emit_scenario_json, flag_value, is_quick, is_traced,
    refuse_unknown_arguments, ScenarioMeter,
};
use swf_chaos::{experiment_config, run_chaos, ChaosProfile, ChaosRunConfig, FaultPlan, SERVICE};
use swf_core::experiments::setup_header;
use swf_simcore::secs;

/// The seed set a `--seeds` value names: `<n>` is `0..n`, `<a>..<b>` the
/// half-open range. An empty set is an error, like a malformed one: a
/// sweep over no seeds checks nothing and must not pass.
fn parse_seeds(v: &str) -> Result<std::ops::Range<u64>, String> {
    let range = match v.split_once("..") {
        Some((a, b)) => a.parse().and_then(|a| b.parse().map(|b| a..b)),
        None => v.parse().map(|n| 0..n),
    };
    match range {
        Ok(r) if !r.is_empty() => Ok(r),
        _ => Err(format!(
            "--seeds requires <n> or <a>..<b> naming at least one seed, got {v:?}"
        )),
    }
}

/// Flags that stand alone, and flags that take a value (`--flag <v>` or
/// `--flag=<v>`). The readers are `main` below and `swf_bench`'s
/// `flag_value`, `is_quick` and `is_traced`: a flag they learn belongs
/// here too, or it is refused.
const SWITCHES: [&str; 4] = ["--quick", "-q", "--rescue", "--trace"];
const VALUED: [&str; 4] = ["--seeds", "--profile", "--trace-out", "--json"];

/// The seed pool: `--seeds`, else `0..8` under `--quick`, `0..32` otherwise.
fn seeds_from_args() -> std::ops::Range<u64> {
    match flag_value("--seeds") {
        Some(v) => parse_seeds(&v).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
        None if is_quick() => 0..8,
        None => 0..32,
    }
}

/// The fault profile selected by `--profile <name>` (`light` by default).
/// An unknown name is a typed [`swf_chaos::UnknownProfile`] error: the
/// sweep refuses to run rather than silently falling back to the default
/// profile.
fn profile_from_args() -> (String, ChaosProfile) {
    let name = flag_value("--profile").unwrap_or_else(|| "light".to_string());
    match ChaosProfile::by_name(&name) {
        Ok(p) => (name, p),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    refuse_unknown_arguments(&args, &SWITCHES, &VALUED);
    // An enabled ambient collector is picked up by every `run_chaos`, so a
    // traced sweep sees the injector's spans; untraced runs keep their own.
    let obs = if is_traced() {
        swf_obs::Obs::enabled()
    } else {
        swf_obs::Obs::disabled()
    };
    let _guard = swf_obs::install(obs.clone());
    let profile = profile_from_args();
    let rescue = args.iter().any(|a| a == "--rescue");
    let seeds = seeds_from_args();
    // The harness derives its jitter-free config from each seed; nothing
    // the header shows depends on which.
    println!("{}", setup_header(&experiment_config(0)));
    println!(
        "## chaos seed sweep ({} profile, {} seeds{})",
        profile.0,
        seeds.end - seeds.start,
        if rescue { ", rescue-resume armed" } else { "" }
    );
    if rescue {
        println!(
            "seed  inj  task-fail  done  calm [s]  chaos [s]  slowdown  rounds  salvaged  salv [s]  waste [s]"
        );
    } else {
        println!("seed  inj  task-fail  done  calm [s]  chaos [s]  slowdown");
    }

    let meter = ScenarioMeter::start();
    let mut rows = Vec::new();
    let mut failing: Vec<(u64, FaultPlan)> = Vec::new();
    let mut rescue_artifacts: Vec<(u64, String, String)> = Vec::new();
    for seed in seeds {
        let cfg = if rescue {
            ChaosRunConfig::rescue(seed)
        } else {
            ChaosRunConfig::quick(seed)
        };
        let plan = FaultPlan::sample(
            &profile.1,
            seed,
            secs(120.0),
            0,
            &[1, 2, 3],
            &[SERVICE.to_string()],
        );
        let calm = match run_chaos(&cfg, &FaultPlan::calm()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: seed {seed} calm run failed: {e}");
                std::process::exit(1);
            }
        };
        let chaos = match run_chaos(&cfg, &plan) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: seed {seed} chaos run failed: {e}");
                std::process::exit(1);
            }
        };
        let calm_s = calm.makespan.as_secs_f64();
        let chaos_s = chaos.makespan.as_secs_f64();
        let slowdown = if calm_s > 0.0 { chaos_s / calm_s } else { 1.0 };
        if rescue {
            println!(
                "{seed:>4}  {:>3}  {:>9}  {:>2}/{}  {calm_s:>8.3}  {chaos_s:>9.3}  {slowdown:>7.2}x  {:>6}  {:>8}  {:>8.3}  {:>9.3}",
                chaos.injected,
                chaos.task_failures,
                chaos.completed(),
                chaos.outcomes.len(),
                chaos.goodput.rescue_rounds,
                chaos.goodput.nodes_salvaged,
                chaos.goodput.salvaged_task_s,
                chaos.goodput.wasted_task_s,
            );
        } else {
            println!(
                "{seed:>4}  {:>3}  {:>9}  {:>2}/{}  {calm_s:>8.3}  {chaos_s:>9.3}  {slowdown:>7.2}x",
                chaos.injected,
                chaos.task_failures,
                chaos.completed(),
                chaos.outcomes.len(),
            );
        }
        if !chaos.all_completed() {
            failing.push((seed, plan.clone()));
            // Without `--rescue` a failed workflow is data, and its replay
            // handle is the plan; its rescue DAG is an artifact only of a
            // sweep whose invariant is completion.
            if rescue {
                for (wf, json) in &chaos.rescue_dags {
                    rescue_artifacts.push((seed, wf.clone(), json.clone()));
                }
            }
        }
        let mut row = serde_json::Map::new();
        row.insert("seed", serde_json::Value::from(seed));
        row.insert("injected", serde_json::Value::from(chaos.injected));
        row.insert(
            "task_failures",
            serde_json::Value::from(chaos.task_failures),
        );
        row.insert(
            "completed",
            serde_json::Value::from(chaos.completed() as u64),
        );
        row.insert(
            "workflows",
            serde_json::Value::from(chaos.outcomes.len() as u64),
        );
        row.insert("calm_makespan_s", serde_json::Value::from(calm_s));
        row.insert("chaos_makespan_s", serde_json::Value::from(chaos_s));
        if rescue {
            row.insert(
                "rescue_rounds",
                serde_json::Value::from(chaos.goodput.rescue_rounds),
            );
            row.insert(
                "nodes_salvaged",
                serde_json::Value::from(chaos.goodput.nodes_salvaged),
            );
            row.insert(
                "salvaged_task_s",
                serde_json::Value::from(chaos.goodput.salvaged_task_s),
            );
            row.insert(
                "wasted_task_s",
                serde_json::Value::from(chaos.goodput.wasted_task_s),
            );
            row.insert(
                "workflows_rescued",
                serde_json::Value::from(chaos.goodput.workflows_rescued),
            );
            row.insert(
                "mean_recovery_s",
                serde_json::Value::from(chaos.goodput.mean_recovery_s),
            );
        }
        rows.push(serde_json::Value::Object(row));
    }

    for (seed, plan) in &failing {
        println!("\nseed {seed} did not complete every workflow; replay with this plan:");
        println!("{plan}");
    }
    for (seed, wf, json) in &rescue_artifacts {
        println!("\nseed {seed} workflow {wf} final rescue DAG:");
        println!("{json}");
    }
    dump_observability(&[("chaos", &obs)]);
    if flag_value("--json").is_some() {
        // The machine-readable record carries the sweep rows; failing
        // plans and final rescue DAGs are embedded so CI can archive
        // them as artifacts.
        let mut section = serde_json::Map::new();
        section.insert("profile", serde_json::Value::from(profile.0));
        section.insert("rescue", serde_json::Value::Bool(rescue));
        section.insert("rows", serde_json::Value::Array(rows.clone()));
        section.insert(
            "failing_plans",
            serde_json::Value::Array(failing.iter().map(|(_, p)| p.to_json()).collect()),
        );
        section.insert(
            "rescue_dags",
            serde_json::Value::Array(
                rescue_artifacts
                    .iter()
                    .map(|(seed, wf, json)| {
                        let mut m = serde_json::Map::new();
                        m.insert("seed", serde_json::Value::from(*seed));
                        m.insert("workflow", serde_json::Value::from(wf.clone()));
                        m.insert("rescue", serde_json::Value::from(json.clone()));
                        serde_json::Value::Object(m)
                    })
                    .collect(),
            ),
        );
        emit_scenario_json(
            "chaos",
            is_quick(),
            serde_json::Value::Object(section),
            &[("chaos", &obs)],
            meter,
        );
    }
    if rescue && !failing.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_seeds;

    #[test]
    fn seed_sets_parse_or_are_refused() {
        assert_eq!(parse_seeds("32"), Ok(0..32));
        assert_eq!(parse_seeds("5..6"), Ok(5..6));
        assert_eq!(parse_seeds("0..32"), Ok(0..32));
        for bad in [
            "0", "7..7", "9..3", "", "..", "3..", "..4", "a..b", "-1", "1..2..3", "x",
        ] {
            let err = parse_seeds(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }
}
