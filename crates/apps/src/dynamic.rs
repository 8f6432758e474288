//! Dynamic workflows: runtime DAG expansion driven by completed outputs.
//!
//! Static DAGMan planning fixes the graph before submission; the paper's
//! title promises *dynamic* HPC workflows, where a completed node's output
//! decides its successors. This module provides that layer in the
//! Triggerflow style: a [`DynamicWorkflow`] carries an initial job set plus
//! [`Trigger`]s — event-condition-action rules that fire when a named job
//! (or a whole stage) completes, read the real output bytes, and return
//! new jobs. The runner executes the workflow in *rounds*: plan and run
//! the current frontier through Pegasus/DAGMan/the venue factory, register
//! its outputs as replicas, fire newly satisfied triggers inside
//! [`swf_obs::Category::Expand`] spans, and repeat until no trigger adds
//! work.
//!
//! Determinism contract: trigger actions are pure functions of the output
//! bytes they are handed, so two runs with the same inputs expand to the
//! same DAG shape — [`DynamicReport::shape_fingerprint`] is the testable
//! witness. Rescue composition: a round whose DAG halts is resumed through
//! [`swf_condor::run_with_resumes`] within the caller's budget (re-planned
//! through Pegasus against the reloaded rescue DAG, completed expanded nodes
//! salvaged verbatim, never re-executed); past the budget — 0 means no
//! resume — the run fails with DAGMan's typed error for the halted round.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use bytes::Bytes;

use swf_cluster::Cluster;
use swf_condor::run_with_resumes;
use swf_pegasus::{
    AbstractJob, AbstractWorkflow, JobFactory, Pegasus, PegasusError, ReplicaLocation,
};
use swf_simcore::{now, SimDuration};

use crate::records::{fnv1a, fnv1a_extend};

/// One job plus the stage tag trigger conditions refer to.
#[derive(Clone)]
pub struct DynamicJob {
    /// The abstract job (inputs/outputs drive intra-round dependencies).
    pub job: AbstractJob,
    /// Stage label, e.g. `validate` — the unit [`TriggerOn::StageDone`]
    /// waits on.
    pub stage: String,
}

/// The event a trigger waits for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerOn {
    /// A single named job completed.
    JobDone(String),
    /// At least one job carries this stage tag and all of them completed.
    StageDone(String),
}

/// What a trigger action sees: the completed outputs of the jobs that
/// satisfied its condition, by file name. Actions must be pure functions
/// of these bytes — that is the determinism contract for data-dependent
/// fan-out.
pub struct TriggerContext {
    /// Output file name → bytes, for every output of the triggering jobs.
    pub outputs: BTreeMap<String, Bytes>,
}

/// What a fired trigger adds to the workflow.
#[derive(Default)]
pub struct Expansion {
    /// New jobs (run in the next round; files may reference any earlier
    /// output or each other).
    pub jobs: Vec<DynamicJob>,
    /// Files to stage on the shared filesystem before the next round
    /// (shard parameter files and similar expansion-time artifacts).
    pub staged: Vec<(String, Bytes)>,
}

/// A trigger action: completed outputs → expansion.
pub type ExpandFn = Rc<dyn Fn(&TriggerContext) -> Result<Expansion, String>>;

/// An event-condition-action rule (Triggerflow-style composition).
pub struct Trigger {
    /// Trigger name (spans and reports).
    pub name: String,
    /// The completion event it waits for.
    pub on: TriggerOn,
    /// The expansion it performs, at most once.
    pub expand: ExpandFn,
}

/// A workflow whose shape is decided at runtime.
#[derive(Default)]
pub struct DynamicWorkflow {
    /// Workflow name (round DAGs are named `<name>#r<i>`).
    pub name: String,
    jobs: Vec<DynamicJob>,
    triggers: Vec<Trigger>,
}

impl DynamicWorkflow {
    /// Empty workflow.
    pub fn new(name: impl Into<String>) -> Self {
        DynamicWorkflow {
            name: name.into(),
            jobs: Vec::new(),
            triggers: Vec::new(),
        }
    }

    /// Add an initial job under a stage tag.
    pub fn add_job(&mut self, job: AbstractJob, stage: impl Into<String>) {
        self.jobs.push(DynamicJob {
            job,
            stage: stage.into(),
        });
    }

    /// Add a trigger.
    pub fn add_trigger(
        &mut self,
        name: impl Into<String>,
        on: TriggerOn,
        expand: impl Fn(&TriggerContext) -> Result<Expansion, String> + 'static,
    ) {
        self.triggers.push(Trigger {
            name: name.into(),
            on,
            expand: Rc::new(expand),
        });
    }

    /// The initial jobs.
    pub fn initial_jobs(&self) -> &[DynamicJob] {
        &self.jobs
    }

    /// The triggers.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }
}

/// Per-round execution statistics.
#[derive(Clone, Debug)]
pub struct RoundStats {
    /// Round index (0-based).
    pub index: usize,
    /// Jobs executed this round.
    pub jobs: usize,
    /// Round makespan (submission to last completion, rescue waits
    /// included).
    pub makespan: SimDuration,
    /// Rescue resumptions this round needed (0 on a calm run).
    pub rescue_rounds: u32,
}

/// One trigger firing.
#[derive(Clone, Debug)]
pub struct ExpansionStats {
    /// Trigger name.
    pub trigger: String,
    /// Round after which it fired.
    pub round: usize,
    /// Jobs it added (the data-derived fan-out degree).
    pub jobs_added: usize,
}

/// Result of a dynamic run.
#[derive(Clone, Debug)]
pub struct DynamicReport {
    /// Workflow name.
    pub name: String,
    /// Per-round statistics, in execution order.
    pub rounds: Vec<RoundStats>,
    /// Trigger firings, in firing order.
    pub expansions: Vec<ExpansionStats>,
    /// Total jobs executed across all rounds.
    pub jobs_total: usize,
    /// End-to-end makespan (all rounds plus expansion decisions).
    pub makespan: SimDuration,
    /// Nodes salvaged from rescue DAGs across all resumptions.
    pub nodes_salvaged: usize,
    /// Canonical one-line-per-job description of the expanded DAG, in
    /// execution order — the input of [`DynamicReport::shape_fingerprint`].
    pub shape: Vec<String>,
}

impl DynamicReport {
    /// FNV-1a fingerprint of the expanded DAG shape: every job's name,
    /// stage, transformation and file sets, plus round boundaries and
    /// trigger fan-outs (venue excluded — the shape is the same in all
    /// three environments). Two runs with the same input data must agree
    /// bit for bit; different input sizes must not.
    pub fn shape_fingerprint(&self) -> u64 {
        let mut h = fnv1a(self.name.as_bytes());
        for line in &self.shape {
            h = fnv1a_extend(h, line.as_bytes());
            h = fnv1a_extend(h, b"\n");
        }
        h
    }
}

/// Hard cap on expansion rounds — a trigger set that keeps adding work
/// past this is a bug, not a workflow.
const MAX_ROUNDS: usize = 64;

fn shape_line(round: usize, dj: &DynamicJob) -> String {
    // The venue is deliberately absent: the expanded *shape* must be
    // identical across native/container/serverless runs of the same data.
    format!(
        "r{round} {name} stage={stage} tf={tf} in={inputs:?} out={outputs:?}",
        name = dj.job.name,
        stage = dj.stage,
        tf = dj.job.transformation,
        inputs = dj.job.inputs,
        outputs = dj.job.outputs,
    )
}

/// Execute a dynamic workflow to completion: run the current frontier as a
/// planned DAG, fire newly satisfied triggers on the real output bytes,
/// append their jobs, repeat. Outputs of completed jobs are registered in
/// the replica catalog so later rounds can consume them. A halted round is
/// resumed from its rescue DAG up to `max_rescue_rounds` times (0 = never).
pub async fn run_dynamic(
    pegasus: &Pegasus,
    factory: &dyn JobFactory,
    cluster: &Cluster,
    dwf: &DynamicWorkflow,
    max_rescue_rounds: u32,
) -> Result<DynamicReport, String> {
    if dwf.initial_jobs().is_empty() {
        return Err(format!("dynamic workflow {} has no initial jobs", dwf.name));
    }
    let obs = swf_obs::current();
    let root = obs.span(
        swf_obs::SpanContext::NONE,
        "apps/dynamic",
        format!("workflow:{}", dwf.name),
        swf_obs::Category::Other,
    );
    let started = now();

    // Everything the workflow has learned so far.
    let mut all_jobs: Vec<DynamicJob> = Vec::new();
    let mut job_names: BTreeSet<String> = BTreeSet::new();
    let mut produced: BTreeSet<String> = BTreeSet::new();
    let mut completed: BTreeSet<String> = BTreeSet::new();
    let mut fired: BTreeSet<usize> = BTreeSet::new();

    let mut pending: Vec<DynamicJob> = dwf.initial_jobs().to_vec();
    let mut rounds = Vec::new();
    let mut expansions = Vec::new();
    let mut shape = Vec::new();
    let mut nodes_salvaged = 0usize;
    let mut round = 0usize;

    while !pending.is_empty() {
        if round >= MAX_ROUNDS {
            return Err(format!(
                "dynamic workflow {} exceeded {MAX_ROUNDS} expansion rounds",
                dwf.name
            ));
        }
        // Admit the frontier, checking the invariants expansion could
        // break: unique job names, single producer per file.
        let mut wf = AbstractWorkflow::new(format!("{}#r{round}", dwf.name));
        for dj in &pending {
            if !job_names.insert(dj.job.name.clone()) {
                return Err(format!("expansion duplicated job name {}", dj.job.name));
            }
            for out in &dj.job.outputs {
                if !produced.insert(out.clone()) {
                    return Err(format!("expansion duplicated producer of {out}"));
                }
            }
            shape.push(shape_line(round, dj));
            wf.add_job(dj.job.clone());
        }

        // Run the round, resuming from its rescue DAGs within the budget; a
        // round still halted past it fails the run with the typed error.
        let round_started = now();
        let in_round = |e: &dyn std::fmt::Display| format!("round {round} of {}: {e}", dwf.name);
        let resumed = run_with_resumes(max_rescue_rounds, async |resume| {
            let run = pegasus.run_resumable(&wf, factory, resume).await;
            run.map(|(_stats, run)| run)
        })
        .await
        .map_err(|e| in_round(&e))?;
        resumed
            .run
            .into_result()
            .map_err(|e| in_round(&PegasusError::Execution(e)))?;
        nodes_salvaged += resumed.nodes_salvaged;
        rounds.push(RoundStats {
            index: round,
            jobs: pending.len(),
            makespan: now() - round_started,
            rescue_rounds: resumed.rounds,
        });

        // Register the round's outputs so later rounds can consume them.
        for dj in &pending {
            completed.insert(dj.job.name.clone());
            for out in &dj.job.outputs {
                pegasus
                    .replicas()
                    .register(out, ReplicaLocation::SharedFs(out.clone()));
            }
        }
        all_jobs.append(&mut pending);

        // Fire every trigger whose condition just became satisfied.
        for (ti, trigger) in dwf.triggers().iter().enumerate() {
            if fired.contains(&ti) {
                continue;
            }
            let sources: Vec<&DynamicJob> = match &trigger.on {
                TriggerOn::JobDone(name) => {
                    if !completed.contains(name) {
                        continue;
                    }
                    all_jobs.iter().filter(|dj| &dj.job.name == name).collect()
                }
                TriggerOn::StageDone(stage) => {
                    let members: Vec<&DynamicJob> =
                        all_jobs.iter().filter(|dj| &dj.stage == stage).collect();
                    if members.is_empty()
                        || !members.iter().all(|dj| completed.contains(&dj.job.name))
                    {
                        continue;
                    }
                    members
                }
            };
            fired.insert(ti);
            // The expansion decision: read the triggering outputs off the
            // shared filesystem, run the pure action, stage its files.
            // The span makes the decision a first-class critical-path
            // category.
            let span = obs.span(
                root.ctx(),
                "apps/dynamic",
                format!("expand:{}", trigger.name),
                swf_obs::Category::Expand,
            );
            let mut outputs = BTreeMap::new();
            for dj in &sources {
                for out in &dj.job.outputs {
                    let data = cluster
                        .shared_fs()
                        .read(out)
                        .await
                        .map_err(|e| format!("trigger {}: {out}: {e}", trigger.name))?;
                    outputs.insert(out.clone(), data);
                }
            }
            let expansion = (trigger.expand)(&TriggerContext { outputs })
                .map_err(|e| format!("trigger {}: {e}", trigger.name))?;
            for (name, data) in &expansion.staged {
                cluster.shared_fs().stage(name, data.clone());
                pegasus
                    .replicas()
                    .register(name, ReplicaLocation::SharedFs(name.clone()));
            }
            drop(span);
            obs.counter_add("apps.triggers_fired", 1);
            obs.counter_add("apps.jobs_expanded", expansion.jobs.len() as u64);
            obs.observe("apps.fanout", expansion.jobs.len() as f64);
            if !expansion.jobs.is_empty() {
                expansions.push(ExpansionStats {
                    trigger: trigger.name.clone(),
                    round,
                    jobs_added: expansion.jobs.len(),
                });
                pending.extend(expansion.jobs);
            }
        }
        round += 1;
    }

    let makespan = now() - started;
    drop(root);
    for e in &expansions {
        shape.push(format!(
            "expand {} r{} +{}",
            e.trigger, e.round, e.jobs_added
        ));
    }
    Ok(DynamicReport {
        name: dwf.name.clone(),
        jobs_total: all_jobs.len(),
        rounds,
        expansions,
        makespan,
        nodes_salvaged,
        shape,
    })
}
