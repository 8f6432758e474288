//! The planner: abstract workflow → executable HTCondor DAG.
//!
//! Responsibilities mirrored from Pegasus: resolve transformations from the
//! catalog, check external inputs against the replica catalog, derive the
//! dependency DAG from file relations, optionally *cluster* linear chains
//! of same-venue tasks (Pegasus' task clustering / the paper's §IX-C task
//! resizing), and emit one Condor job per planned task through a pluggable
//! [`JobFactory`] so execution venues (native / container / serverless) are
//! decided by the integration layer.

use std::rc::Rc;

use bytes::Bytes;

use swf_condor::{DagSpec, JobContext, JobSpec};
use swf_simcore::SimDuration;
use swf_workloads::ExecEnv;

use crate::abstract_wf::{AbstractWorkflow, TaskLogic, WorkflowError};
use crate::catalog::{ReplicaCatalog, TransformationCatalog};

/// A fully resolved task ready for venue binding.
#[derive(Clone)]
pub struct PlannedTask {
    /// Task name (cluster names join constituents with `+`).
    pub name: String,
    /// Files staged into the sandbox before execution.
    pub inputs: Vec<String>,
    /// Files staged out of the sandbox after execution.
    pub outputs: Vec<String>,
    /// Modelled single-core compute time (summed across a cluster).
    pub compute: SimDuration,
    /// Composed real computation.
    pub logic: TaskLogic,
    /// Container image when the venue needs one.
    pub container_image: Option<String>,
    /// Execution venue.
    pub env: ExecEnv,
    /// Number of abstract jobs merged into this task (1 = unclustered).
    pub clustered: usize,
    /// Logical transformation name (head transformation for clusters).
    pub transformation: String,
}

/// Builds the Condor job for one planned task.
pub trait JobFactory {
    /// The job for `task`: its program and every file to stage into its
    /// sandbox — the task's declared inputs plus any the venue brings (e.g.
    /// a container image tarball transferred per job, as Pegasus does for
    /// containerized tasks). [`plan`] adds the declared outputs.
    fn build(&self, task: &PlannedTask) -> JobSpec;
}

/// Planner errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Workflow validation failed.
    Workflow(WorkflowError),
    /// A job references an unregistered transformation.
    UnknownTransformation(String),
    /// An external input has no replica registered.
    UnstagedInput(String),
    /// The emitted Condor DAG was rejected (bad edge, cycle).
    Dag(swf_condor::CondorError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Workflow(e) => write!(f, "invalid workflow: {e}"),
            PlanError::UnknownTransformation(t) => write!(f, "unknown transformation: {t}"),
            PlanError::UnstagedInput(p) => write!(f, "external input not in replica catalog: {p}"),
            PlanError::Dag(e) => write!(f, "invalid DAG: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<WorkflowError> for PlanError {
    fn from(e: WorkflowError) -> Self {
        PlanError::Workflow(e)
    }
}

/// Planner options.
#[derive(Clone, Copy, Debug)]
pub struct PlanOptions {
    /// Maximum tasks merged per linear cluster (1 disables clustering).
    pub cluster_level: usize,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { cluster_level: 1 }
    }
}

/// The executable workflow: a Condor DAG plus planning metadata.
pub struct ExecutableWorkflow {
    /// The DAG handed to DAGMan.
    pub dag: DagSpec,
    /// Planned tasks in DAG-node order.
    pub tasks: Vec<PlannedTask>,
}

impl std::fmt::Debug for ExecutableWorkflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutableWorkflow")
            .field("nodes", &self.dag.len())
            .field(
                "tasks",
                &self
                    .tasks
                    .iter()
                    .map(|t| t.name.as_str())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Plan an abstract workflow into an executable one.
pub fn plan(
    wf: &AbstractWorkflow,
    tcat: &TransformationCatalog,
    rcat: &ReplicaCatalog,
    factory: &dyn JobFactory,
    options: PlanOptions,
) -> Result<ExecutableWorkflow, PlanError> {
    let edges = wf.derive_dependencies()?;
    for ext in wf.external_inputs() {
        if !rcat.contains(&ext) {
            return Err(PlanError::UnstagedInput(ext));
        }
    }
    // Resolve transformations.
    let mut resolved: Vec<PlannedTask> = Vec::with_capacity(wf.len());
    for job in wf.jobs() {
        let t = tcat
            .lookup(&job.transformation)
            .ok_or_else(|| PlanError::UnknownTransformation(job.transformation.clone()))?;
        resolved.push(PlannedTask {
            name: job.name.clone(),
            inputs: job.inputs.clone(),
            outputs: job.outputs.clone(),
            compute: t.compute,
            logic: t.logic.clone(),
            container_image: t.container_image.clone(),
            env: job.env,
            clustered: 1,
            transformation: job.transformation.clone(),
        });
    }

    // Optional linear-chain clustering.
    let (tasks, edges) = if options.cluster_level > 1 {
        cluster_chains(resolved, &edges, options.cluster_level)
    } else {
        (resolved, edges.clone())
    };

    // Emit the Condor DAG.
    let mut dag = DagSpec::named(wf.name.clone());
    for task in &tasks {
        let spec = factory.build(task).with_outputs(task.outputs.clone());
        dag.add_node(task.name.clone(), spec);
    }
    for (p, c) in edges {
        dag.add_edge(p, c).map_err(PlanError::Dag)?;
    }
    Ok(ExecutableWorkflow { dag, tasks })
}

/// Merge linear same-venue chains into clusters of at most `level` tasks.
/// A merge happens when a task's *primary* output (outputs[0]) is consumed
/// as the *primary* input (inputs[0]) of exactly one child with the same
/// venue, and neither task participates in other dependencies.
fn cluster_chains(
    tasks: Vec<PlannedTask>,
    edges: &[(usize, usize)],
    level: usize,
) -> (Vec<PlannedTask>, Vec<(usize, usize)>) {
    let n = tasks.len();
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(p, c) in edges {
        out_edges[p].push(c);
        in_edges[c].push(p);
    }
    // Identify chain successors.
    let mut next: Vec<Option<usize>> = vec![None; n];
    for i in 0..n {
        if out_edges[i].len() != 1 {
            continue;
        }
        let c = out_edges[i][0];
        if in_edges[c].len() != 1 {
            continue;
        }
        if tasks[i].env != tasks[c].env {
            continue;
        }
        let primary_out = match tasks[i].outputs.first() {
            Some(o) => o,
            None => continue,
        };
        if tasks[c].inputs.first() != Some(primary_out) {
            continue;
        }
        next[i] = Some(c);
    }
    let mut has_pred_in_chain = vec![false; n];
    for &c in next.iter().flatten() {
        has_pred_in_chain[c] = true;
    }
    // Build clusters greedily from chain heads.
    let mut cluster_of = vec![usize::MAX; n];
    let mut clusters: Vec<Vec<usize>> = Vec::new();
    for head in 0..n {
        if has_pred_in_chain[head] || cluster_of[head] != usize::MAX {
            continue;
        }
        let mut chain = vec![head];
        let mut cur = head;
        while chain.len() < level {
            match next[cur] {
                Some(c) if cluster_of[c] == usize::MAX => {
                    chain.push(c);
                    cur = c;
                }
                _ => break,
            }
        }
        for &m in &chain {
            cluster_of[m] = clusters.len();
        }
        clusters.push(chain);
        // Remaining tail of a long chain starts a fresh cluster next loop:
        // mark the next link as a head by clearing its predecessor flag.
        if let Some(c) = next[cur] {
            if cluster_of[c] == usize::MAX {
                has_pred_in_chain[c] = false;
            }
        }
    }
    // Compose clustered tasks.
    let mut new_tasks: Vec<PlannedTask> = Vec::with_capacity(clusters.len());
    for members in &clusters {
        if members.len() == 1 {
            new_tasks.push(tasks[members[0]].clone());
            continue;
        }
        let head = &tasks[members[0]];
        let mut inputs = head.inputs.clone();
        let mut compute = head.compute;
        let mut stages: Vec<(TaskLogic, usize)> = Vec::new();
        stages.push((head.logic.clone(), head.inputs.len()));
        // Outputs consumed only inside the cluster are elided.
        let member_set: std::collections::BTreeSet<usize> = members.iter().copied().collect();
        let mut outputs: Vec<String> = Vec::new();
        for (pos, &m) in members.iter().enumerate() {
            let t = &tasks[m];
            if pos > 0 {
                // Secondary inputs join the cluster inputs.
                inputs.extend(t.inputs.iter().skip(1).cloned());
                compute += t.compute;
                stages.push((t.logic.clone(), t.inputs.len() - 1));
            }
            // Keep an output if any consumer is outside the cluster, or if
            // nothing consumes it (final artifact).
            for (oi, o) in t.outputs.iter().enumerate() {
                let consumed_inside = pos + 1 < members.len()
                    && oi == 0
                    && out_edges[m].iter().all(|c| member_set.contains(c));
                if !consumed_inside {
                    outputs.push(o.clone());
                }
            }
        }
        let composed_stages = stages;
        let logic: TaskLogic = Rc::new(move |all_inputs: Vec<Bytes>| {
            let mut iter = all_inputs.into_iter();
            let (first_logic, first_arity) = &composed_stages[0];
            let first_in: Vec<Bytes> = iter.by_ref().take(*first_arity).collect();
            let mut outs = first_logic(first_in)?;
            for (logic, extra) in &composed_stages[1..] {
                let mut ins = Vec::with_capacity(extra + 1);
                ins.push(
                    outs.first()
                        .cloned()
                        .ok_or("cluster stage produced no output")?,
                );
                ins.extend(iter.by_ref().take(*extra));
                outs = logic(ins)?;
            }
            Ok(outs)
        });
        new_tasks.push(PlannedTask {
            name: members
                .iter()
                .map(|&m| tasks[m].name.as_str())
                .collect::<Vec<_>>()
                .join("+"),
            inputs,
            outputs,
            compute,
            logic,
            container_image: head.container_image.clone(),
            env: head.env,
            clustered: members.len(),
            transformation: head.transformation.clone(),
        });
    }
    // Remap edges between clusters.
    let mut new_edges: Vec<(usize, usize)> = Vec::new();
    for &(p, c) in edges {
        let (cp, cc) = (cluster_of[p], cluster_of[c]);
        if cp != cc && !new_edges.contains(&(cp, cc)) {
            new_edges.push((cp, cc));
        }
    }
    (new_tasks, new_edges)
}

/// The built-in native venue: read sandbox inputs, charge compute, run the
/// logic, write sandbox outputs. Other venues (container, serverless) are
/// provided by the integration crate.
pub struct NativeFactory;

impl JobFactory for NativeFactory {
    fn build(&self, task: &PlannedTask) -> JobSpec {
        let inputs = task.inputs.clone();
        let task = Rc::new(task.clone());
        JobSpec::new(move |ctx: JobContext| {
            let task = Rc::clone(&task);
            Box::pin(async move { run_native(&task, &ctx).await })
        })
        .with_inputs(inputs)
    }
}

/// The native venue's job body: charge the task's compute on the claimed
/// core, then run its logic on the sandbox inputs.
pub async fn run_native(task: &PlannedTask, ctx: &JobContext) -> Result<Bytes, String> {
    run_in_sandbox(task, ctx, async |inputs| {
        ctx.compute(task.compute).await;
        (task.logic)(inputs)
    })
    .await
}

/// The sandbox path every venue shares: read the task's declared inputs in
/// order, hand them to `execute`, check it returned one output per
/// declared output, and write those for stage-out.
pub async fn run_in_sandbox(
    task: &PlannedTask,
    ctx: &JobContext,
    execute: impl AsyncFnOnce(Vec<Bytes>) -> Result<Vec<Bytes>, String>,
) -> Result<Bytes, String> {
    let mut inputs = Vec::with_capacity(task.inputs.len());
    for f in &task.inputs {
        let data = ctx
            .node
            .fs()
            .read(&ctx.sandbox_path(f))
            .await
            .map_err(|e| e.to_string())?;
        inputs.push(data);
    }
    let outs = execute(inputs).await?;
    if outs.len() != task.outputs.len() {
        return Err(format!(
            "{} produced {} outputs, expected {}",
            task.name,
            outs.len(),
            task.outputs.len()
        ));
    }
    for (name, data) in task.outputs.iter().zip(outs) {
        ctx.node.fs().write(ctx.sandbox_path(name), data).await;
    }
    Ok(Bytes::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstract_wf::{AbstractJob, Transformation};
    use crate::catalog::ReplicaLocation;
    use swf_simcore::secs;

    fn concat_logic(inputs: Vec<Bytes>) -> Result<Vec<Bytes>, String> {
        let mut all = Vec::new();
        for i in &inputs {
            all.extend_from_slice(i);
        }
        Ok(vec![Bytes::from(all)])
    }

    fn chain_workflow(
        n: usize,
        env: ExecEnv,
    ) -> (AbstractWorkflow, TransformationCatalog, ReplicaCatalog) {
        let tcat = TransformationCatalog::new();
        tcat.register(Transformation::new("concat", secs(0.1), concat_logic));
        let rcat = ReplicaCatalog::new();
        rcat.register("seed", ReplicaLocation::SharedFs("seed".into()));
        let mut wf = AbstractWorkflow::new("chain");
        for t in 0..n {
            let input_a = if t == 0 {
                "seed".to_string()
            } else {
                format!("out{}", t - 1)
            };
            let input_b = format!("side{t}");
            rcat.register(&input_b, ReplicaLocation::SharedFs(input_b.clone()));
            wf.add_job(AbstractJob {
                name: format!("t{t}"),
                transformation: "concat".into(),
                inputs: vec![input_a, input_b],
                outputs: vec![format!("out{t}")],
                env,
            });
        }
        (wf, tcat, rcat)
    }

    #[test]
    fn plan_produces_one_node_per_job() {
        let (wf, tcat, rcat) = chain_workflow(5, ExecEnv::Native);
        let exec = plan(&wf, &tcat, &rcat, &NativeFactory, PlanOptions::default()).unwrap();
        assert_eq!(exec.dag.len(), 5);
        assert_eq!(exec.tasks.len(), 5);
        assert!(exec.tasks.iter().all(|t| t.clustered == 1));
    }

    #[test]
    fn unknown_transformation_is_rejected() {
        let (mut wf, tcat, rcat) = chain_workflow(1, ExecEnv::Native);
        wf.add_job(AbstractJob {
            name: "x".into(),
            transformation: "ghost".into(),
            inputs: vec![],
            outputs: vec!["xo".into()],
            env: ExecEnv::Native,
        });
        let err = plan(&wf, &tcat, &rcat, &NativeFactory, PlanOptions::default()).unwrap_err();
        assert_eq!(err, PlanError::UnknownTransformation("ghost".into()));
    }

    #[test]
    fn unstaged_external_input_is_rejected() {
        let tcat = TransformationCatalog::new();
        tcat.register(Transformation::new("concat", secs(0.1), concat_logic));
        let rcat = ReplicaCatalog::new();
        let mut wf = AbstractWorkflow::new("w");
        wf.add_job(AbstractJob {
            name: "a".into(),
            transformation: "concat".into(),
            inputs: vec!["not-staged".into()],
            outputs: vec!["o".into()],
            env: ExecEnv::Native,
        });
        let err = plan(&wf, &tcat, &rcat, &NativeFactory, PlanOptions::default()).unwrap_err();
        assert_eq!(err, PlanError::UnstagedInput("not-staged".into()));
    }

    #[test]
    fn clustering_merges_chains_to_level() {
        let (wf, tcat, rcat) = chain_workflow(10, ExecEnv::Native);
        let exec = plan(
            &wf,
            &tcat,
            &rcat,
            &NativeFactory,
            PlanOptions { cluster_level: 5 },
        )
        .unwrap();
        assert_eq!(exec.dag.len(), 2);
        assert_eq!(exec.tasks[0].clustered, 5);
        assert_eq!(exec.tasks[0].name, "t0+t1+t2+t3+t4");
        // Cluster inputs: seed + side0 + side1..4 = 6.
        assert_eq!(exec.tasks[0].inputs.len(), 6);
        // Only the boundary output survives.
        assert_eq!(exec.tasks[0].outputs, vec!["out4".to_string()]);
        // Compute sums.
        assert_eq!(exec.tasks[0].compute, secs(0.5));
    }

    #[test]
    fn clustering_respects_env_boundaries() {
        let tcat = TransformationCatalog::new();
        tcat.register(Transformation::new("concat", secs(0.1), concat_logic));
        let rcat = ReplicaCatalog::new();
        rcat.register("seed", ReplicaLocation::SharedFs("seed".into()));
        let mut wf = AbstractWorkflow::new("mixed");
        for t in 0..4 {
            let env = if t < 2 {
                ExecEnv::Native
            } else {
                ExecEnv::Serverless
            };
            let input_a = if t == 0 {
                "seed".to_string()
            } else {
                format!("out{}", t - 1)
            };
            wf.add_job(AbstractJob {
                name: format!("t{t}"),
                transformation: "concat".into(),
                inputs: vec![input_a],
                outputs: vec![format!("out{t}")],
                env,
            });
        }
        let exec = plan(
            &wf,
            &tcat,
            &rcat,
            &NativeFactory,
            PlanOptions { cluster_level: 4 },
        )
        .unwrap();
        // Two clusters of two: env boundary blocks the merge.
        assert_eq!(exec.dag.len(), 2);
        assert_eq!(exec.tasks[0].clustered, 2);
        assert_eq!(exec.tasks[1].clustered, 2);
    }

    #[test]
    fn clustered_logic_composes_correctly() {
        let (wf, tcat, rcat) = chain_workflow(3, ExecEnv::Native);
        let exec = plan(
            &wf,
            &tcat,
            &rcat,
            &NativeFactory,
            PlanOptions { cluster_level: 3 },
        )
        .unwrap();
        assert_eq!(exec.tasks.len(), 1);
        let t = &exec.tasks[0];
        // inputs: seed, side0, side1, side2
        let outs = (t.logic)(vec![
            Bytes::from_static(b"S"),
            Bytes::from_static(b"0"),
            Bytes::from_static(b"1"),
            Bytes::from_static(b"2"),
        ])
        .unwrap();
        // t0: S+0 = "S0"; t1: "S0"+1 = "S01"; t2: "S01"+2 = "S012".
        assert_eq!(&outs[0][..], b"S012");
    }

    #[test]
    fn fanout_is_never_clustered() {
        let tcat = TransformationCatalog::new();
        tcat.register(Transformation::new("concat", secs(0.1), concat_logic));
        let rcat = ReplicaCatalog::new();
        rcat.register("seed", ReplicaLocation::SharedFs("seed".into()));
        let mut wf = AbstractWorkflow::new("fan");
        wf.add_job(AbstractJob {
            name: "src".into(),
            transformation: "concat".into(),
            inputs: vec!["seed".into()],
            outputs: vec!["m".into()],
            env: ExecEnv::Native,
        });
        for i in 0..2 {
            wf.add_job(AbstractJob {
                name: format!("leaf{i}"),
                transformation: "concat".into(),
                inputs: vec!["m".into()],
                outputs: vec![format!("leaf{i}_out")],
                env: ExecEnv::Native,
            });
        }
        let exec = plan(
            &wf,
            &tcat,
            &rcat,
            &NativeFactory,
            PlanOptions { cluster_level: 3 },
        )
        .unwrap();
        assert_eq!(exec.dag.len(), 3); // no merging across the fan-out
    }
}
