//! The chaos experiment: concurrent workflows through the full stack under
//! a fault plan, with typed per-workflow outcomes.
//!
//! The harness is the seed-sweep counterpart of
//! `swf_core::experiments::concurrent`: it boots the same testbed, but
//! with every jitter stream zeroed (so `makespan(chaos) ≥ makespan(calm)`
//! is a structural fact, not a statistical one), with spaced retry
//! policies in DAGMan and the Knative router (so the stack rides out
//! faults instead of exhausting immediate retries), and with workflow
//! tasks wired to the [`Disruptor`] so flaky/slow windows reach them.
//!
//! Every workflow takes the same path whatever the configuration: DAGMan
//! runs it, a node out of retries halts its descendants and a rescue DAG is
//! written, and [`swf_condor::run_with_resumes`] resumes it from that rescue
//! up to [`ChaosRunConfig::max_rescue_rounds`] times — 0 in
//! [`ChaosRunConfig::quick`], where a halt is simply the workflow's typed
//! failure. The harness adds its invariants around each run: nodes a rescue
//! records done never execute again, and their outputs never change.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use swf_cluster::Request;
use swf_condor::{
    run_dag_resumable, run_with_resumes, DagRun, DagSpec, JobContext, JobSpec, NodeOutcome,
    ResumeError,
};
use swf_container::Workload;
use swf_core::config::ExperimentConfig;
use swf_core::TestBed;
use swf_knative::{BreakerConfig, KService};
use swf_simcore::{
    join_all, now, secs, sleep, spawn, timeout, Elapsed, RetryPolicy, Sim, SimDuration, SimTime,
};

use crate::inject::{Disruptor, Injector, Stack};
use crate::plan::FaultPlan;

/// The KService chaos workflows invoke for their serverless tasks.
pub const SERVICE: &str = "chaos-fn";

/// Every n-th task of a chain invokes the Knative function instead of
/// running natively.
const SERVERLESS_EVERY: usize = 4;
/// Nominal per-task compute.
pub const TASK_COMPUTE: SimDuration = SimDuration::from_secs(2);
/// DAGMan retries per node.
const NODE_RETRIES: u32 = 4;
/// Per-workflow liveness deadline; exceeding it is a typed failure.
const DEADLINE: SimDuration = SimDuration::from_secs(3600);

/// Shape of one chaos experiment run.
#[derive(Clone, Debug)]
pub struct ChaosRunConfig {
    /// Concurrent workflow chains.
    pub workflows: usize,
    /// Tasks per chain.
    pub tasks_per_workflow: usize,
    /// Root seed: drives the testbed, the disruptor coin flips, and the
    /// router's retry jitter.
    pub seed: u64,
    /// Arm the self-healing stack: liveness probes on function pods, the
    /// per-revision circuit breaker, and a bounded queue-proxy depth.
    pub rescue: bool,
    /// Times a halted workflow is resumed from its rescue DAG (persisted
    /// through a JSON round-trip each round) before it counts as failed;
    /// 0 = never resume.
    pub max_rescue_rounds: u32,
}

impl ChaosRunConfig {
    /// The seed-sweep shape: 3 chains × 4 tasks with a serverless task in
    /// each chain — small enough that 24 slots never contend, so faults
    /// compose monotonically into the makespan.
    pub fn quick(seed: u64) -> ChaosRunConfig {
        ChaosRunConfig {
            workflows: 3,
            tasks_per_workflow: 4,
            seed,
            rescue: false,
            max_rescue_rounds: 0,
        }
    }

    /// The self-healing shape: `quick` plus rescue-resume with a generous
    /// round budget, for sweeps that must complete every workflow even
    /// under the heavy profile.
    pub fn rescue(seed: u64) -> ChaosRunConfig {
        let mut c = ChaosRunConfig::quick(seed);
        c.rescue = true;
        c.max_rescue_rounds = 16;
        c
    }
}

/// How one workflow ended.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkflowOutcome {
    /// Every node ran to success.
    Completed {
        /// Submission-to-last-node makespan.
        makespan: SimDuration,
    },
    /// The workflow surfaced a typed error (DAG node exhausted its
    /// retries, or the liveness deadline elapsed).
    Failed {
        /// The error, stringified.
        error: String,
    },
}

/// Goodput accounting: how much completed work the rescue DAGs carried
/// across resume rounds versus how much compute failed attempts threw
/// away. With a resume budget of zero only `wasted_task_s` can be non-zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GoodputReport {
    /// Task-seconds of completed work injected from rescue DAGs instead
    /// of being re-executed (summed over every resume round).
    pub salvaged_task_s: f64,
    /// Task-seconds burned by failed attempts across all rounds.
    pub wasted_task_s: f64,
    /// Resume rounds spent across all workflows.
    pub rescue_rounds: u64,
    /// Node results carried over from rescue DAGs (summed over rounds).
    pub nodes_salvaged: u64,
    /// Workflows that needed at least one rescue round.
    pub workflows_rescued: u64,
    /// Mean virtual-time gap between a workflow's first halt and its
    /// eventual completion, over rescued workflows that completed.
    pub mean_recovery_s: f64,
    /// Completed nodes whose execution counter moved after they were
    /// recorded done in a rescue DAG. The sweep invariant requires zero.
    pub reexecuted_nodes: u64,
    /// Salvaged node outputs that did not compare bit-identical to the
    /// final report's results. The sweep invariant requires zero.
    pub output_mismatches: u64,
}

/// Everything a seed-sweep invariant needs from one run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The plan that was injected.
    pub plan: FaultPlan,
    /// Per-workflow outcomes, in workflow order.
    pub outcomes: Vec<WorkflowOutcome>,
    /// Start-to-settle time of the whole batch (last workflow outcome).
    pub makespan: SimDuration,
    /// Injections applied by the injector.
    pub injected: u64,
    /// Task failures the disruptor injected inside flaky windows.
    pub task_failures: u64,
    /// Per-node registry byte ledger (node id, bytes pulled to it).
    pub registry_ledger: Vec<(usize, u64)>,
    /// Total bytes the registry served (ledger conservation partner).
    pub registry_bytes_served: u64,
    /// Pulls refused during registry outages.
    pub registry_failed_pulls: u64,
    /// Virtual instant the workflow batch started (after harness setup).
    pub started_at: SimTime,
    /// Virtual instant the last workflow outcome settled. Billing spans
    /// `[started_at, settled_at]`; `makespan` is their difference.
    pub settled_at: SimTime,
    /// Full metrics registry snapshot (fault counters live here).
    pub metrics: swf_obs::MetricsSnapshot,
    /// Goodput accounting.
    pub goodput: GoodputReport,
    /// Final rescue DAGs (workflow name, JSON text) of workflows that
    /// still failed after the round budget — the artifacts CI uploads.
    pub rescue_dags: Vec<(String, String)>,
}

impl ChaosOutcome {
    /// Did every workflow complete successfully?
    pub fn all_completed(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, WorkflowOutcome::Completed { .. }))
    }

    /// Number of completed workflows.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, WorkflowOutcome::Completed { .. }))
            .count()
    }

    /// An order-sensitive FNV-1a digest of the run's observable timing:
    /// two runs of the same seed must fingerprint identically, bit for
    /// bit. Folds the batch makespan and every per-workflow outcome.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.makespan.as_nanos());
        for o in &self.outcomes {
            match o {
                WorkflowOutcome::Completed { makespan } => {
                    eat(1);
                    eat(makespan.as_secs_f64().to_bits());
                }
                WorkflowOutcome::Failed { error } => {
                    eat(2);
                    eat(error.len() as u64);
                }
            }
        }
        eat(self.injected);
        eat(self.task_failures);
        eat(self.goodput.rescue_rounds);
        eat(self.goodput.nodes_salvaged);
        h
    }
}

/// The calm experiment configuration chaos runs perturb: `quick()` with
/// every jitter stream zeroed and spaced (but deterministic) retry
/// policies, so a run under an empty plan is the bitwise baseline for the
/// monotonicity invariant.
pub fn experiment_config(seed: u64) -> ExperimentConfig {
    let mut c = ExperimentConfig::quick();
    c.seed = seed;
    c.condor.negotiator.seed = seed;
    c.condor.negotiator.cycle_jitter_cv = 0.0;
    c.condor.negotiator.activation_jitter_cv = 0.0;
    c.condor.negotiator.activation_delay = SimDuration::ZERO;
    c.dagman.poll_jitter_cv = 0.0;
    c.dagman.retry = RetryPolicy::exponential(4, secs(1.0), secs(8.0));
    c.overheads.jitter_cv = 0.0;
    c.k8s.overheads.jitter_cv = 0.0;
    c.knative.invoke_retry = RetryPolicy::exponential(12, secs(0.25), secs(4.0));
    c.knative.attempt_timeout = Some(secs(30.0));
    c.knative.seed = seed;
    c
}

/// Run one chaos experiment: boot the stack, spawn the injector, run
/// `cfg.workflows` concurrent chains, and collect typed outcomes. Returns
/// `Err` only on harness setup failure (e.g. the function never became
/// ready); workflow failures are data, not errors.
pub fn run_chaos(cfg: &ChaosRunConfig, plan: &FaultPlan) -> Result<ChaosOutcome, String> {
    run_chaos_with(cfg, plan, |_| {})
}

/// [`run_chaos`] with a setup hook that runs inside the simulation right
/// after the testbed boots, before the service registers and workflows
/// start. Elastic infrastructure (autoscalers, cost ledgers) attaches
/// here; `run_chaos` itself passes a no-op, so runs without a hook are
/// bit-identical to runs before the hook existed.
pub fn run_chaos_with(
    cfg: &ChaosRunConfig,
    plan: &FaultPlan,
    setup: impl FnOnce(&TestBed) + 'static,
) -> Result<ChaosOutcome, String> {
    let sim = Sim::new();
    let cfg = cfg.clone();
    let plan = plan.clone();
    sim.block_on(async move {
        // Reuse an ambient enabled collector (so a tracing CLI run sees the
        // injector's spans); otherwise install a private enabled one so the
        // outcome's metrics snapshot is always populated.
        let ambient = swf_obs::current();
        let (obs, _obs_guard) = if ambient.is_enabled() {
            (ambient, None)
        } else {
            let o = swf_obs::Obs::enabled();
            let g = swf_obs::install(o.clone());
            (o, Some(g))
        };
        let mut config = experiment_config(cfg.seed);
        if cfg.rescue {
            // Arm the self-healing stack: liveness probes on function
            // pods, the per-revision circuit breaker, and a bounded
            // queue-proxy depth with typed overload 503s.
            config.knative.pod_probe = Some(swf_k8s::ProbeSpec {
                period: secs(1.0),
                unready_threshold: 1,
                failure_threshold: 2,
            });
            config.knative.breaker = BreakerConfig::enabled(5, secs(8.0));
            config.knative.data_plane.queue_depth = 8;
        }
        let bed = TestBed::boot(&config);
        setup(&bed);
        let disruptor = Disruptor::new(cfg.seed);

        let d = disruptor.clone();
        bed.knative.register_fn(
            KService::new(SERVICE, bed.image.clone()).with_min_scale(1),
            move |req| {
                let body = req.body.clone();
                let dur = d.scale_compute(TASK_COMPUTE);
                Workload::new(dur, move || Ok(body))
            },
        );
        bed.knative
            .wait_ready(SERVICE, 1, secs(3600.0))
            .await
            .map_err(|e| format!("chaos harness: {SERVICE} never became ready: {e}"))?;

        let t0 = now();
        let injector = Injector::new(plan.clone());
        let inj_handle = spawn(injector.run(Stack::of(&bed), Some(disruptor.clone())));

        let mut handles = Vec::new();
        for w in 0..cfg.workflows {
            // Per-node execution counters: every job closure bumps its
            // node's entry, so the sweep can prove salvaged nodes never
            // re-execute after a resume.
            let execs: Rc<RefCell<BTreeMap<String, u64>>> = Rc::new(RefCell::new(BTreeMap::new()));
            let dag = build_chain(&cfg, w, &bed, &disruptor, &execs)?;
            let condor = bed.condor.clone();
            let dagman = config.dagman;
            let max_rounds = cfg.max_rescue_rounds;
            // Deterministic stagger stands in for the zeroed phase jitter.
            let stagger = SimDuration::from_secs_f64(0.25 * w as f64);
            handles.push(spawn(async move {
                sleep(stagger).await;
                let run = run_workflow(condor, dag, dagman, max_rounds, execs);
                let (outcome, stats) = match timeout(DEADLINE, run).await {
                    Ok(pair) => pair,
                    Err(Elapsed) => (
                        WorkflowOutcome::Failed {
                            error: "workflow deadline elapsed".to_string(),
                        },
                        WorkflowStats::default(),
                    ),
                };
                (outcome, now(), stats)
            }));
        }
        let settled = join_all(handles).await;
        let injected = inj_handle.await;
        let settle_at = settled.iter().map(|(_, t, _)| *t).fold(t0, SimTime::max);
        let mut goodput = GoodputReport::default();
        let mut rescue_dags = Vec::new();
        let mut recovery_sum = 0.0;
        let mut recovered = 0u64;
        let mut outcomes = Vec::new();
        for (w, (outcome, _, stats)) in settled.into_iter().enumerate() {
            goodput.salvaged_task_s += stats.salvaged_s;
            goodput.wasted_task_s += stats.wasted_s;
            goodput.rescue_rounds += stats.rounds;
            goodput.nodes_salvaged += stats.nodes_salvaged;
            goodput.reexecuted_nodes += stats.reexecuted;
            goodput.output_mismatches += stats.output_mismatches;
            if stats.rounds > 0 {
                goodput.workflows_rescued += 1;
            }
            if let Some(s) = stats.recovery_s {
                recovery_sum += s;
                recovered += 1;
            }
            if let Some(json) = stats.rescue_json {
                rescue_dags.push((format!("chaos-wf{w}"), json));
            }
            outcomes.push(outcome);
        }
        if recovered > 0 {
            goodput.mean_recovery_s = recovery_sum / recovered as f64;
        }
        Ok(ChaosOutcome {
            plan,
            outcomes,
            makespan: settle_at - t0,
            started_at: t0,
            settled_at: settle_at,
            injected,
            task_failures: disruptor.injected_failures(),
            registry_ledger: bed
                .registry
                .bytes_ledger()
                .into_iter()
                .map(|(n, b)| (n.0, b))
                .collect(),
            registry_bytes_served: bed.registry.bytes_served(),
            registry_failed_pulls: bed.registry.failed_pulls(),
            metrics: obs.metrics(),
            goodput,
            rescue_dags,
        })
    })
}

/// Per-workflow bookkeeping [`run_workflow`] threads back to [`run_chaos`].
#[derive(Clone, Debug, Default)]
struct WorkflowStats {
    rounds: u64,
    salvaged_s: f64,
    wasted_s: f64,
    nodes_salvaged: u64,
    reexecuted: u64,
    output_mismatches: u64,
    recovery_s: Option<f64>,
    rescue_json: Option<String>,
}

/// Run one workflow through [`run_with_resumes`] with a budget of
/// `max_rounds` resumes. Completed nodes are frozen the first time a rescue
/// records them done: their execution counters must never move again and
/// their final outputs must compare bit-identical to the recorded bytes. A
/// workflow still halted past the budget, or whose rescue does not read
/// back, is a typed failure carrying its last rescue text, never a panic.
async fn run_workflow(
    condor: swf_condor::Condor,
    dag: DagSpec,
    dagman: swf_condor::DagmanConfig,
    max_rounds: u32,
    execs: Rc<RefCell<BTreeMap<String, u64>>>,
) -> (WorkflowOutcome, WorkflowStats) {
    let mut stats = WorkflowStats::default();
    // Node name → (execution count at freeze, recorded output bytes).
    let mut frozen: BTreeMap<String, (u64, Bytes)> = BTreeMap::new();
    let mut first_halt: Option<SimTime> = None;
    let resumed = run_with_resumes(max_rounds, async |rescue| {
        let run = run_dag_resumable(&condor, &dag, dagman, rescue).await;
        // No frozen node may have executed again this round.
        let counts = execs.borrow();
        for (name, (frozen_count, _)) in &frozen {
            if counts.get(name).copied().unwrap_or(0) > *frozen_count {
                stats.reexecuted += 1;
            }
        }
        let run = run?;
        stats.wasted_s += run.report().wasted_compute.as_secs_f64();
        if let DagRun::Halted { rescue, .. } = &run {
            first_halt.get_or_insert(now());
            for n in &rescue.nodes {
                if let NodeOutcome::Done { result } = &n.outcome {
                    frozen.entry(n.name.clone()).or_insert_with(|| {
                        (
                            counts.get(&n.name).copied().unwrap_or(0),
                            result.output.clone(),
                        )
                    });
                }
            }
        }
        Ok::<_, swf_condor::CondorError>(run)
    })
    .await;
    let resumed = match resumed {
        Ok(resumed) => resumed,
        Err(e) => {
            let error = e.to_string();
            if let ResumeError::Unreadable { text, .. } = e {
                stats.rescue_json = Some(text);
            }
            return (WorkflowOutcome::Failed { error }, stats);
        }
    };
    stats.rounds = u64::from(resumed.rounds);
    stats.salvaged_s = resumed.salvaged_task_s;
    stats.nodes_salvaged = resumed.nodes_salvaged as u64;
    stats.rescue_json = resumed.rescue_text;
    match resumed.run.into_result() {
        Ok(report) => {
            for (name, (_, recorded)) in &frozen {
                match report.node_results.get(name) {
                    Some(r) if r.output == *recorded => {}
                    _ => stats.output_mismatches += 1,
                }
            }
            if let Some(h) = first_halt {
                stats.recovery_s = Some((now() - h).as_secs_f64());
            }
            (
                WorkflowOutcome::Completed {
                    makespan: report.makespan(),
                },
                stats,
            )
        }
        Err(e) => (
            WorkflowOutcome::Failed {
                error: e.to_string(),
            },
            stats,
        ),
    }
}

/// One workflow: a sequential chain of `tasks_per_workflow` tasks, every
/// [`SERVERLESS_EVERY`]-th one invoking the Knative function from the node
/// the wrapper job landed on, the rest computing natively. Every task
/// consults the disruptor.
fn build_chain(
    cfg: &ChaosRunConfig,
    w: usize,
    bed: &TestBed,
    disruptor: &Disruptor,
    execs: &Rc<RefCell<BTreeMap<String, u64>>>,
) -> Result<DagSpec, String> {
    let mut dag = DagSpec::named(format!("chaos-wf{w}"));
    let mut prev: Option<usize> = None;
    for t in 0..cfg.tasks_per_workflow {
        let serverless = (t + 1) % SERVERLESS_EVERY == 0;
        let name = format!("wf{w}-t{t}");
        let job = if serverless {
            let kn = bed.knative.clone();
            let d = disruptor.clone();
            let execs = execs.clone();
            let name = name.clone();
            JobSpec::new(move |ctx: JobContext| {
                let kn = kn.clone();
                let d = d.clone();
                *execs.borrow_mut().entry(name.clone()).or_insert(0) += 1;
                Box::pin(async move {
                    if d.should_fail() {
                        return Err("chaos: injected task failure".to_string());
                    }
                    let from = ctx.node.id();
                    match kn
                        .invoke(from, SERVICE, Request::post("/", Bytes::from_static(b"x")))
                        .await
                    {
                        Ok(resp) if resp.is_success() => Ok(resp.body),
                        Ok(resp) => Err(format!("{SERVICE}: http {}", resp.status)),
                        Err(e) => Err(e.to_string()),
                    }
                })
            })
        } else {
            let d = disruptor.clone();
            let execs = execs.clone();
            let name = name.clone();
            JobSpec::new(move |ctx: JobContext| {
                let d = d.clone();
                *execs.borrow_mut().entry(name.clone()).or_insert(0) += 1;
                Box::pin(async move {
                    if d.should_fail() {
                        return Err("chaos: injected task failure".to_string());
                    }
                    ctx.compute(d.scale_compute(TASK_COMPUTE)).await;
                    Ok(Bytes::from_static(b"ok"))
                })
            })
        };
        let idx = dag.add_node_with_retries(name, job, NODE_RETRIES);
        if let Some(p) = prev {
            dag.add_edge(p, idx).map_err(|e| e.to_string())?;
        }
        prev = Some(idx);
    }
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ChaosProfile;

    #[test]
    fn calm_run_completes_everything_and_replays_bitwise() {
        let cfg = ChaosRunConfig::quick(3);
        let a = run_chaos(&cfg, &FaultPlan::calm()).unwrap();
        let b = run_chaos(&cfg, &FaultPlan::calm()).unwrap();
        assert!(a.all_completed());
        assert_eq!(a.injected, 0);
        assert_eq!(a.task_failures, 0);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            a.makespan.as_secs_f64().to_bits(),
            b.makespan.as_secs_f64().to_bits()
        );
    }

    #[test]
    fn rescue_resume_completes_after_a_forced_node_failure() {
        use crate::plan::FaultKind;
        let cfg = ChaosRunConfig::rescue(21);
        // Let the first task of each chain finish, then make every task
        // attempt fail long enough to exhaust DAGMan's retries: the run
        // must halt, write rescues, and complete on a later resume round
        // without re-executing the salvaged first tasks.
        let mut plan = FaultPlan::calm();
        plan.push(
            secs(5.0),
            FaultKind::FlakyTasks {
                window: secs(30.0),
                fail_chance: 1.0,
            },
        );
        let out = run_chaos(&cfg, &plan).unwrap();
        assert!(
            out.all_completed(),
            "rescue-resume must complete every workflow: {:?}",
            out.outcomes
        );
        assert!(out.goodput.rescue_rounds >= 1, "must have resumed");
        assert!(out.goodput.nodes_salvaged >= 1, "must have salvaged work");
        assert!(out.goodput.salvaged_task_s > 0.0);
        assert_eq!(out.goodput.reexecuted_nodes, 0, "salvaged nodes re-ran");
        assert_eq!(out.goodput.output_mismatches, 0, "salvaged outputs drifted");
        assert!(out.goodput.mean_recovery_s > 0.0);
        assert!(out.rescue_dags.is_empty(), "no workflow exhausted rounds");
    }

    #[test]
    fn rescue_mode_is_inert_on_a_calm_run() {
        let quick = run_chaos(&ChaosRunConfig::quick(3), &FaultPlan::calm()).unwrap();
        let rescue = run_chaos(&ChaosRunConfig::rescue(3), &FaultPlan::calm()).unwrap();
        assert!(rescue.all_completed());
        assert_eq!(rescue.goodput, GoodputReport::default());
        // The armed stack (probes, breaker, queue depth) changes no calm
        // outcome: same completions, zero rescue machinery engaged.
        assert_eq!(quick.completed(), rescue.completed());
    }

    #[test]
    fn chaotic_run_is_slower_than_calm_and_conserves_registry_bytes() {
        let cfg = ChaosRunConfig::quick(5);
        let calm = run_chaos(&cfg, &FaultPlan::calm()).unwrap();
        let plan = FaultPlan::sample(
            &ChaosProfile::light(),
            5,
            secs(120.0),
            0,
            &[1, 2, 3],
            &[SERVICE.to_string()],
        );
        let chaos = run_chaos(&cfg, &plan).unwrap();
        assert!(chaos.injected > 0, "the sampled plan must inject something");
        if chaos.all_completed() {
            assert!(
                chaos.makespan >= calm.makespan,
                "faults must not speed the batch up: chaos {:?} vs calm {:?}",
                chaos.makespan,
                calm.makespan
            );
        }
        let ledger_total: u64 = chaos.registry_ledger.iter().map(|(_, b)| *b).sum();
        assert_eq!(ledger_total, chaos.registry_bytes_served);
    }
}
