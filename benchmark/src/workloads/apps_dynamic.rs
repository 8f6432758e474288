//! `apps-dynamic`: the four dynamic applications in the three venues.
//!
//! FINRA validation, ML training, ML inference and word count at paper
//! scale, each from many input seeds, through `run_app`: runtime DAG
//! expansion, one Pegasus plan per round, the app kernels and the records
//! codec. The only workload with wide DAGs, so the one a change to how
//! serverless tasks are invoked has to show on.

use serde_json::{json, Value};
use swf_apps::{run_app, AppKind, AppOutcome, AppRun};
use swf_core::ExperimentConfig;
use swf_obs::{critical_path, roots, Category, CriticalPath, Span};
use swf_workloads::ExecEnv;

use crate::tracer::Tracer;
use crate::workload::{
    seed_block, seeded, touch_zero_pool, Checks, LayerCtx, PassOut, Values, Workload,
};
use crate::{isolate, layers};

const VENUES: [ExecEnv; 3] = [ExecEnv::Native, ExecEnv::Serverless, ExecEnv::Container];

/// Span name and per-run metric of each application, in `AppKind::ALL` order.
const APPS: [(AppKind, &str, &str); 4] = [
    (AppKind::Finra, "apps.finra", "apps.finra_ms"),
    (AppKind::MlTrain, "apps.mltrain", "apps.mltrain_ms"),
    (AppKind::MlInfer, "apps.mlinfer", "apps.mlinfer_ms"),
    (AppKind::WordCount, "apps.wordcount", "apps.wordcount_ms"),
];

pub struct AppsDynamic {
    seed: u64,
    input_seeds: std::ops::Range<u64>,
}

fn app_run(kind: AppKind, env: ExecEnv, seed: u64, trace: bool) -> AppRun {
    AppRun {
        kind,
        env,
        seed,
        quick: false,
        trace,
        rescue: false,
        max_rescue_rounds: 0,
    }
}

impl AppsDynamic {
    pub fn new(seed: u64, smoke: bool, tr: &Tracer, checks: &mut Checks) -> AppsDynamic {
        // Input seeds are disjoint between benchmark seeds.
        let base = seed_block(seed);
        touch_zero_pool(tr);
        let mut this = AppsDynamic {
            seed,
            input_seeds: base..base + 1,
        };
        // Warm-up: one input seed of every application in every venue.
        this.pass(&Tracer::off(), checks);
        this.input_seeds = base..base + if smoke { 1 } else { 40 };
        this
    }
}

/// A dynamic workflow runs as one DAG per round, each its own trace root
/// `workflow:<name>#r<round>`, under an enclosing root that times the
/// expansion decisions between them. Rounds run one after another, so the
/// app's critical path is the rounds' critical paths end to end plus the
/// enclosing root's own time (expansion, and the gaps between rounds).
fn rounds_critical_path(spans: &[Span]) -> CriticalPath {
    let mut whole = CriticalPath::default();
    for root in roots(spans) {
        if !root.name.starts_with("workflow:") {
            continue;
        }
        let cp = critical_path(spans, root.id);
        let is_round = root.name.contains("#r");
        for (category, seconds) in cp.breakdown {
            // The enclosing root is idle (`other`) while a round runs.
            if is_round || category != Category::Other {
                *whole.breakdown.entry(category).or_insert(0.0) += seconds;
            }
        }
    }
    whole
}

impl Workload for AppsDynamic {
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut {
        let (mut jobs, mut rounds) = (0usize, 0usize);
        let (mut serverless_makespan, mut serverless_runs) = (0.0, 0u32);
        for (kind, span, _) in APPS {
            for seed in self.input_seeds.clone() {
                let outcomes: Vec<AppOutcome> = VENUES
                    .iter()
                    .filter_map(|&env| {
                        let outcome = tr.span(span, || run_app(&app_run(kind, env, seed, false)));
                        checks.check_result(outcome, span)
                    })
                    .collect();
                // The venue changes where a job runs, never what it computes.
                checks.check(
                    outcomes.len() == VENUES.len()
                        && outcomes
                            .iter()
                            .all(|o| o.output_fingerprint == outcomes[0].output_fingerprint),
                    || format!("{span} seed {seed}: output differs between venues"),
                );
                for (env, outcome) in VENUES.iter().zip(&outcomes) {
                    jobs += outcome.report.jobs_total;
                    rounds += outcome.report.rounds.len();
                    if *env == ExecEnv::Serverless {
                        serverless_makespan += outcome.report.makespan.as_secs_f64();
                        serverless_runs += 1;
                    }
                }
            }
        }
        let mut out = PassOut::default();
        out.exact.insert(
            "makespan_s",
            serverless_makespan / f64::from(serverless_runs.max(1)),
        );
        out.exact.insert("apps.jobs_expanded", jobs as f64);
        out.exact.insert("apps.rounds", rounds as f64);
        out
    }

    fn layers(&mut self, ctx: &LayerCtx, checks: &mut Checks, out: &mut Values) {
        for (_, span, metric) in APPS {
            out.insert(metric, ctx.tr.totals(span).self_ms_per_span());
        }
        // Program counters and the critical path of one traced run: the
        // widest application in the venue the paper argues for.
        let traced = app_run(
            AppKind::Finra,
            ExecEnv::Serverless,
            self.input_seeds.start,
            true,
        );
        if let Some(outcome) = checks.check_result(run_app(&traced), "traced finra run") {
            layers::program_counts(&outcome.obs, out);
            out.insert("obs.spans", outcome.obs.span_count() as f64);
            layers::critpath(&rounds_critical_path(&outcome.obs.spans()), out);
        }
        let config = seeded(ExperimentConfig::paper(), self.seed);
        isolate::pegasus(ctx.tr, ctx.scale, out);
        isolate::core(ctx.tr, &config, ctx.scale, out);
    }

    fn sizes(&self) -> Value {
        json!({
            "apps": "finra, mltrain, mlinfer, wordcount at paper scale (quick: false)",
            "venues": "native, serverless, container",
            "input_seeds": (self.input_seeds.end - self.input_seeds.start),
        })
    }
}
