//! One workload, one process: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use serde_json::{json, Map, Value};
use swf_simcore::perf::{self, ExecProfile};

use crate::stats::Quartiles;
use crate::tracer::Tracer;
use crate::workload::{Checks, LayerCtx, PassOut, Values, Workload};
use crate::{host, metrics, workloads};

/// Set-ups measured per untraced run: this process's own and this many
/// `--setup-probe` children, each a fresh process.
const SETUP_PROBES: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Everything one run found.
pub struct Report {
    pub args: RunArgs,
    pub sizes: Value,
    pub checks: Checks,
    pub passes: usize,
    /// Each metric's median over its samples (passes, set-ups), with the
    /// quartiles and the sample count; a single reading has `n` = 1.
    pub metrics: BTreeMap<&'static str, Quartiles>,
}

impl Report {
    /// All output checks passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    fn metrics_json(&self, names: impl Iterator<Item = &'static metrics::Metric>) -> Value {
        let mut map = Map::new();
        for metric in names {
            // A per-layer metric this workload does not exercise reads 0.
            let value = self.metrics.get(metric.name).map_or(0.0, |q| q.median);
            map.insert(
                metric.name,
                json!({ "value": value, "unit": (metric.unit) }),
            );
        }
        Value::Object(map)
    }

    /// The one-line result the benchmark contract asks for: every gated
    /// end-to-end metric after an untraced run, every per-layer metric after
    /// a traced one.
    pub fn contract_line(&self) -> String {
        let metrics = if self.args.trace {
            self.metrics_json(metrics::per_layer())
        } else {
            self.metrics_json(metrics::GATED.iter())
        };
        json!({
            "correct": (self.correct()),
            "attempted": (self.checks.attempted.max(1)),
            "failed": (self.checks.failed),
            "metrics": metrics,
        })
        .to_string()
    }

    /// The full record of this run, for the result file: every metric it
    /// measured, with sample counts and quartiles.
    pub fn to_json(&self) -> Value {
        let mut measured = Map::new();
        for (name, q) in &self.metrics {
            let unit = metrics::find(name).map_or("", |m| m.unit);
            measured.insert(
                *name,
                json!({
                    "value": (q.median),
                    "unit": unit,
                    "n": (q.n),
                    "q1": (q.q1),
                    "q3": (q.q3),
                }),
            );
        }
        json!({
            "workload": (self.args.workload.clone()),
            "seed": (self.args.seed),
            "seconds": (self.args.seconds),
            "smoke": (self.args.smoke),
            "traced": (self.args.trace),
            "sizes": (self.sizes.clone()),
            "correct": (self.correct()),
            "attempted": (self.checks.attempted),
            "failed": (self.checks.failed),
            "failures": (self.checks.failures.iter().take(10).cloned().collect::<Vec<_>>()),
            "passes": (self.passes),
            "metrics": (Value::Object(measured)),
        })
    }
}

/// One timed pass with the executor's counters around it.
struct Timed {
    out: PassOut,
    wall_s: f64,
    profile: ExecProfile,
}

fn timed_pass(workload: &mut dyn Workload, tr: &Tracer, checks: &mut Checks) -> Timed {
    perf::reset_ready_peak();
    let before = perf::snapshot();
    let started = Instant::now();
    let out = {
        let _span = tr.enter("pass");
        workload.pass(tr, checks)
    };
    let wall_s = started.elapsed().as_secs_f64();
    Timed {
        out,
        wall_s,
        profile: perf::snapshot().delta(&before),
    }
}

/// The executor's exact counts for one pass.
fn simcore_counts(profile: &ExecProfile) -> [(&'static str, f64); 6] {
    [
        ("simcore.events", profile.events() as f64),
        ("simcore.polls", profile.polls as f64),
        ("simcore.wakes", profile.wakes as f64),
        ("simcore.timers_fired", profile.timers_fired as f64),
        ("simcore.spawned", profile.spawned as f64),
        ("simcore.peak_ready_queue", profile.ready_peak as f64),
    ]
}

/// Executor events per host second, pass by pass.
fn event_rates(passes: &[Timed]) -> Vec<f64> {
    passes
        .iter()
        .map(|p| p.profile.events() as f64 / p.wall_s)
        .collect()
}

/// Megabytes of JSON text per second spent printing or parsing it, pass by
/// pass.
fn json_rates(passes: &[Timed]) -> Vec<f64> {
    passes
        .iter()
        .filter_map(|p| {
            let (bytes, json_s) = (
                p.out.exact.get("json.export_bytes")?,
                p.out.host.get("json_s")?,
            );
            Some(bytes / 1e6 / json_s)
        })
        .collect()
}

/// Check that a later pass repeated the first one's virtual results and
/// counts bit for bit.
fn check_repeat(first: &Timed, later: &Timed, checks: &mut Checks) {
    let bits = |values: &Values| -> Vec<(&'static str, u64)> {
        values.iter().map(|(k, v)| (*k, v.to_bits())).collect()
    };
    checks.check(
        bits(&first.out.exact) == bits(&later.out.exact) && first.profile == later.profile,
        || "a repeated pass gave different virtual results or counts".to_string(),
    );
}

/// Seconds this process took from its start to the end of set-up, and the
/// same from `SETUP_PROBES` fresh processes.
fn setup_samples(args: &RunArgs, own: f64, checks: &mut Checks) -> Vec<f64> {
    let mut samples = vec![own];
    let Ok(exe) = std::env::current_exe() else {
        return samples;
    };
    for _ in 0..SETUP_PROBES {
        let output = Command::new(&exe)
            .args(["--setup-probe", "--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .output();
        let seconds = output.map_err(|e| e.to_string()).and_then(|o| {
            let printed = String::from_utf8_lossy(&o.stdout);
            printed.trim().parse::<f64>().map_err(|e| e.to_string())
        });
        samples.extend(checks.check_result(seconds, "set-up probe"));
    }
    samples
}

/// Set the workload up; `None` for an unknown name.
fn set_up(args: &RunArgs, tr: &Tracer, checks: &mut Checks) -> Option<Box<dyn Workload>> {
    let _span = tr.enter("setup");
    workloads::set_up(&args.workload, args.seed, args.smoke, tr, checks)
}

/// Set up only, and return the seconds since `process_start`.
pub fn setup_probe(args: &RunArgs, process_start: Instant) -> Option<f64> {
    set_up(args, &Tracer::off(), &mut Checks::default())?;
    Some(process_start.elapsed().as_secs_f64())
}

/// Run one workload. `None` for an unknown workload name.
pub fn run(args: &RunArgs, process_start: Instant) -> Option<Report> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args, process_start)
    }
}

fn run_untraced(args: &RunArgs, process_start: Instant) -> Option<Report> {
    let tr = Tracer::off();
    let mut checks = Checks::default();
    let mut workload = set_up(args, &tr, &mut checks)?;
    let own_setup = process_start.elapsed().as_secs_f64();
    let setups = if args.smoke {
        vec![own_setup]
    } else {
        setup_samples(args, own_setup, &mut checks)
    };

    // Passes repeat identical work until the time is used; the next one
    // starts only if, going by the last, it would end in time.
    let measuring = Instant::now();
    let mut passes: Vec<Timed> = Vec::new();
    loop {
        let pass = timed_pass(workload.as_mut(), &tr, &mut checks);
        let next_ends = measuring.elapsed().as_secs_f64() + pass.wall_s;
        passes.push(pass);
        if next_ends > args.seconds {
            break;
        }
    }
    let first = &passes[0];
    for later in &passes[1..] {
        check_repeat(first, later, &mut checks);
    }

    let mut metrics = BTreeMap::new();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    metrics.insert("wall_s", Quartiles::of(&walls));
    metrics.insert("setup_s", Quartiles::of(&setups));
    if let Some(rss) = host::peak_rss_mb() {
        metrics.insert("peak_rss_mb", Quartiles::single(rss));
    }
    if first.profile.events() > 0 {
        metrics.insert("events_per_s", Quartiles::of(&event_rates(&passes)));
    }
    let json = json_rates(&passes);
    if !json.is_empty() {
        metrics.insert("json_mb_per_s", Quartiles::of(&json));
    }
    for (name, value) in &first.out.exact {
        metrics.insert(*name, Quartiles::single(*value));
    }
    for (name, value) in simcore_counts(&first.profile) {
        metrics.insert(name, Quartiles::single(value));
    }
    metrics.insert("fail_share", Quartiles::single(checks.fail_share()));
    Some(Report {
        args: args.clone(),
        sizes: workload.sizes(),
        passes: passes.len(),
        checks,
        metrics,
    })
}

fn run_traced(args: &RunArgs) -> Option<Report> {
    let tr = Tracer::on();
    let mut checks = Checks::default();
    let mut workload = set_up(args, &tr, &mut checks)?;

    // The same pass with the recorder off and on, in turn, until the time is
    // used. The plain passes give the end-to-end rates that only some
    // workloads define; the difference between the two kinds is what the
    // recorder itself costs.
    let measuring = Instant::now();
    let (mut plain, mut traced): (Vec<Timed>, Vec<Timed>) = (Vec::new(), Vec::new());
    loop {
        let off = timed_pass(workload.as_mut(), &Tracer::off(), &mut checks);
        tr.next_iteration();
        let on = timed_pass(workload.as_mut(), &tr, &mut checks);
        let next_ends = measuring.elapsed().as_secs_f64() + off.wall_s + on.wall_s;
        plain.push(off);
        traced.push(on);
        if next_ends > args.seconds {
            break;
        }
    }
    let first = &plain[0];
    for later in plain[1..].iter().chain(&traced) {
        check_repeat(first, later, &mut checks);
    }
    let walls = |passes: &[Timed]| -> Vec<f64> { passes.iter().map(|p| p.wall_s).collect() };
    let plain_wall_s = Quartiles::of(&walls(&plain)).median;
    let traced_wall_s = Quartiles::of(&walls(&traced)).median;

    let mut out: Values = first.out.exact.clone();
    out.extend(simcore_counts(&first.profile));
    let events = first.profile.events();
    if events > 0 {
        out.insert("simcore.ns_per_event", traced_wall_s * 1e9 / events as f64);
        out.insert("events_per_s", Quartiles::of(&event_rates(&plain)).median);
    }
    let json = json_rates(&plain);
    if !json.is_empty() {
        out.insert("json_mb_per_s", Quartiles::of(&json).median);
    }
    out.insert(
        "bench.trace_overhead_share",
        (traced_wall_s - plain_wall_s) / plain_wall_s,
    );
    out.insert(
        "cluster.zero_pool_first_touch_ms",
        tr.totals("cluster.zero_pool_first_touch")
            .self_ms_per_span(),
    );

    tr.next_iteration();
    {
        let _span = tr.enter("layers");
        let ctx = LayerCtx {
            tr: &tr,
            traced_wall_s,
            exact: &first.out.exact,
            scale: if args.smoke { 20 } else { 1 },
        };
        workload.layers(&ctx, &mut checks, &mut out);
    }
    out.insert("fail_share", checks.fail_share());
    write_trace(args, &tr, traced.len(), &mut checks);

    let mut metrics = BTreeMap::new();
    metrics.insert("wall_s", Quartiles::of(&walls(&traced)));
    for (name, value) in out {
        metrics.insert(name, Quartiles::single(value));
    }
    Some(Report {
        args: args.clone(),
        sizes: workload.sizes(),
        passes: plain.len() + traced.len(),
        checks,
        metrics,
    })
}

/// Write the recorded spans to `benchmark/out/<workload>.trace.json`.
fn write_trace(args: &RunArgs, tr: &Tracer, traced_passes: usize, checks: &mut Checks) {
    let dir = host::out_dir();
    let path = dir.join(format!("{}.trace.json", args.workload));
    let doc = json!({
        "workload": (args.workload.clone()),
        "seed": (args.seed),
        "iterations": (format!(
            "0 is set-up, 1 to {traced_passes} are traced passes, {} is the per-layer section",
            traced_passes + 1
        )),
        "spans": (tr.to_json()),
    });
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.to_string()));
    checks.check_result(
        written.map_err(|e| e.to_string()),
        &format!("write {}", path.display()),
    );
}
