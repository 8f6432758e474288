//! The swf-apps benchmark scenario: every application × every execution
//! venue, with runtime-expansion statistics and the cross-venue bitwise
//! equality verdict: the suite's `apps` scenario.

use swf_apps::{AppKind, AppRun};
use swf_workloads::ExecEnv;

/// The three venues, in canonical order.
pub const ENVS: [ExecEnv; 3] = [ExecEnv::Native, ExecEnv::Container, ExecEnv::Serverless];

/// One app × venue execution.
pub struct AppsRow {
    /// Application label.
    pub app: &'static str,
    /// Venue label.
    pub env: ExecEnv,
    /// End-to-end makespan in virtual seconds (all rounds plus expansion
    /// decisions).
    pub makespan: f64,
    /// Expansion rounds the workflow took.
    pub rounds: usize,
    /// Total jobs executed (initial + expanded).
    pub jobs: usize,
    /// Trigger firings: (trigger name, jobs added).
    pub expansions: Vec<(String, usize)>,
    /// FNV-1a fingerprint of the final output file.
    pub output_fingerprint: u64,
    /// FNV-1a fingerprint of the expanded DAG shape.
    pub shape_fingerprint: u64,
    /// Span collector of this run.
    pub obs: swf_obs::Obs,
}

/// The full apps scenario result.
pub struct AppsResult {
    /// One row per app × venue, app-major in canonical order.
    pub rows: Vec<AppsRow>,
}

impl AppsResult {
    /// Rows of one app, in venue order.
    pub fn app_rows(&self, app: &str) -> Vec<&AppsRow> {
        self.rows.iter().filter(|r| r.app == app).collect()
    }

    /// True when every venue of `app` produced the same output bytes and
    /// the same expanded DAG shape.
    pub fn bitwise_equal(&self, app: &str) -> bool {
        let rows = self.app_rows(app);
        rows.windows(2).all(|w| {
            w[0].output_fingerprint == w[1].output_fingerprint
                && w[0].shape_fingerprint == w[1].shape_fingerprint
        })
    }

    /// The deterministic `virtual` section of the scenario document.
    pub fn to_json(&self) -> serde_json::Value {
        let mut apps = serde_json::Map::new();
        for kind in AppKind::ALL {
            let label = kind.label();
            let mut envs = serde_json::Map::new();
            for row in self.app_rows(label) {
                let mut expansions = serde_json::Map::new();
                for (trigger, jobs_added) in &row.expansions {
                    expansions.insert(trigger.clone(), serde_json::Value::from(*jobs_added));
                }
                let mut obj = serde_json::Map::new();
                obj.insert("makespan_s", serde_json::Value::from(row.makespan));
                obj.insert("rounds", serde_json::Value::from(row.rounds));
                obj.insert("jobs", serde_json::Value::from(row.jobs));
                obj.insert("expansions", serde_json::Value::Object(expansions));
                obj.insert(
                    "output_fp",
                    serde_json::Value::from(format!("{:016x}", row.output_fingerprint)),
                );
                obj.insert(
                    "shape_fp",
                    serde_json::Value::from(format!("{:016x}", row.shape_fingerprint)),
                );
                envs.insert(row.env.to_string(), serde_json::Value::Object(obj));
            }
            let mut app_obj = serde_json::Map::new();
            app_obj.insert(
                "bitwise_equal",
                serde_json::Value::from(self.bitwise_equal(label)),
            );
            app_obj.insert("envs", serde_json::Value::Object(envs));
            apps.insert(label.to_string(), serde_json::Value::Object(app_obj));
        }
        let mut root = serde_json::Map::new();
        root.insert("apps", serde_json::Value::Object(apps));
        serde_json::Value::Object(root)
    }

    /// Labelled collectors (`apps/<app>/<env>`) for trace export.
    pub fn collectors(&self) -> Vec<(String, swf_obs::Obs)> {
        self.rows
            .iter()
            .map(|r| (format!("apps/{}/{}", r.app, r.env), r.obs.clone()))
            .collect()
    }
}

/// Run every application in every venue at quick or paper scale, tracing
/// on (the scenario document wants populated span collectors).
pub fn run_apps(quick: bool) -> AppsResult {
    let mut rows = Vec::new();
    for kind in AppKind::ALL {
        for env in ENVS {
            let mut run = AppRun::quick(kind, env).with_trace();
            run.quick = quick;
            let outcome = swf_apps::run_app(&run)
                .unwrap_or_else(|e| panic!("apps bench: {kind} in {env}: {e}"));
            rows.push(AppsRow {
                app: kind.label(),
                env,
                makespan: outcome.report.makespan.as_secs_f64(),
                rounds: outcome.report.rounds.len(),
                jobs: outcome.report.jobs_total,
                expansions: outcome
                    .report
                    .expansions
                    .iter()
                    .map(|e| (e.trigger.clone(), e.jobs_added))
                    .collect(),
                output_fingerprint: outcome.output_fingerprint,
                shape_fingerprint: outcome.report.shape_fingerprint(),
                obs: outcome.obs,
            });
        }
    }
    AppsResult { rows }
}

/// Render the apps scenario as a human-readable table.
pub fn apps_report(r: &AppsResult) -> String {
    let mut t = swf_metrics::Table::new(
        "swf-apps — dynamic workflows across execution venues",
        &[
            "app",
            "env",
            "makespan_s",
            "rounds",
            "jobs",
            "max_fanout",
            "bitwise",
        ],
    );
    for row in &r.rows {
        let max_fanout = row.expansions.iter().map(|(_, n)| *n).max().unwrap_or(0);
        t.row(&[
            row.app.to_string(),
            row.env.to_string(),
            format!("{:.2}", row.makespan),
            row.rounds.to_string(),
            row.jobs.to_string(),
            max_fanout.to_string(),
            if r.bitwise_equal(row.app) {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
        ]);
    }
    let mut s = t.render();
    s.push_str("\nexpansions (trigger → jobs added, native venue):\n");
    for row in r.rows.iter().filter(|r| r.env == ExecEnv::Native) {
        for (trigger, n) in &row.expansions {
            s.push_str(&format!("  {}/{trigger}: +{n}\n", row.app));
        }
    }
    s
}
