//! DAGMan: dependency-driven workflow execution over the schedd.
//!
//! Pegasus plans abstract workflows into DAGMan DAGs; DAGMan submits a node
//! once all its parents completed, polls the queue on a fixed interval
//! (real DAGMan tails the job log every few seconds) and retries failed
//! nodes.

use std::collections::BTreeMap;

use swf_simcore::{now, sleep, RetryPolicy, SimDuration, SimTime};

use crate::error::{CondorError, DagProgress};
use crate::job::{JobId, JobResult, JobSpec, JobStatus};
use crate::pool::Condor;
use crate::rescue::{NodeOutcome, RescueDag, RescueNode};

/// One DAG node.
pub struct DagNode {
    /// Node name (unique in the DAG).
    pub name: String,
    /// The job to run.
    pub job: JobSpec,
    /// Retries allowed after the first failure.
    pub retries: u32,
}

/// A workflow DAG.
#[derive(Default)]
pub struct DagSpec {
    nodes: Vec<DagNode>,
    /// children[i] = indices of nodes depending on i.
    children: Vec<Vec<usize>>,
    /// Number of parents per node.
    parents: Vec<usize>,
    /// Workflow name, used as the trace root span label.
    name: String,
}

impl DagSpec {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty DAG carrying a workflow name (trace root label).
    pub fn named(name: impl Into<String>) -> Self {
        DagSpec {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The workflow name ("dag" when unset).
    pub fn name(&self) -> &str {
        if self.name.is_empty() {
            "dag"
        } else {
            &self.name
        }
    }

    /// Add a node; returns its index.
    pub fn add_node(&mut self, name: impl Into<String>, job: JobSpec) -> usize {
        self.nodes.push(DagNode {
            name: name.into(),
            job,
            retries: 0,
        });
        self.children.push(Vec::new());
        self.parents.push(0);
        self.nodes.len() - 1
    }

    /// Add a node with retries; returns its index.
    pub fn add_node_with_retries(
        &mut self,
        name: impl Into<String>,
        job: JobSpec,
        retries: u32,
    ) -> usize {
        let idx = self.add_node(name, job);
        self.nodes[idx].retries = retries;
        idx
    }

    /// Declare `child` depends on `parent`.
    pub fn add_edge(&mut self, parent: usize, child: usize) -> Result<(), CondorError> {
        if parent >= self.nodes.len() || child >= self.nodes.len() {
            return Err(CondorError::InvalidDag("edge index out of range".into()));
        }
        if parent == child {
            return Err(CondorError::InvalidDag("self-dependency".into()));
        }
        self.children[parent].push(child);
        self.parents[child] += 1;
        Ok(())
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Kahn's algorithm: error when a cycle exists.
    pub fn validate(&self) -> Result<(), CondorError> {
        let mut indeg = self.parents.clone();
        let mut queue: Vec<usize> = (0..self.nodes.len()).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(n) = queue.pop() {
            seen += 1;
            for &c in &self.children[n] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if seen == self.nodes.len() {
            Ok(())
        } else {
            Err(CondorError::InvalidDag(format!(
                "cycle among {} nodes",
                self.nodes.len() - seen
            )))
        }
    }
}

/// DAGMan parameters.
#[derive(Clone, Copy, Debug)]
pub struct DagmanConfig {
    /// Queue polling interval (job-log tail cadence in real DAGMan).
    pub poll_interval: SimDuration,
    /// Lognormal jitter on each poll sleep (real DAGMan reacts to job-log
    /// events with variable latency; 0 = strictly periodic). The jitter
    /// stream is seeded from the run's start instant, so concurrent DAG
    /// runs are naturally desynchronized yet the whole simulation stays
    /// deterministic.
    pub poll_jitter_cv: f64,
    /// Backoff schedule between a node's failure and its resubmission.
    /// The default immediate policy resubmits within the same poll tick —
    /// the historical DAGMan behaviour — so calm runs do not drift.
    /// Non-zero delays round up to the poll tick on which DAGMan next
    /// observes the node (real DAGMan re-reads its job log on the same
    /// cadence). The per-node retry *count* stays
    /// on [`DagNode::retries`]; only the spacing comes from the policy.
    pub retry: RetryPolicy,
}

impl Default for DagmanConfig {
    fn default() -> Self {
        DagmanConfig {
            poll_interval: SimDuration::from_secs(5),
            poll_jitter_cv: 0.0,
            retry: RetryPolicy::immediate(1),
        }
    }
}

/// Outcome of a DAG run.
#[derive(Clone, Debug)]
pub struct DagReport {
    /// Per-node results by node name.
    pub node_results: BTreeMap<String, JobResult>,
    /// Submission instant.
    pub started: SimTime,
    /// Completion instant of the last node.
    pub finished: SimTime,
    /// Total condor jobs submitted (includes retries).
    pub jobs_submitted: u32,
    /// Execution time spent on attempts that ended in failure — the
    /// "wasted task-seconds" side of goodput accounting.
    pub wasted_compute: SimDuration,
}

impl DagReport {
    /// End-to-end workflow makespan.
    pub fn makespan(&self) -> SimDuration {
        self.finished - self.started
    }
}

enum NodeState {
    Waiting {
        missing_parents: usize,
    },
    Ready,
    Submitted {
        id: JobId,
        attempt: u32,
    },
    Backoff {
        until: SimTime,
        attempt: u32,
    },
    Done,
    /// Exhausted its retries.
    Failed,
    /// Unreachable: a (transitive) parent failed, so it can never run.
    Futile,
}

/// Outcome of a resumable DAG run.
#[derive(Clone, Debug)]
pub enum DagRun {
    /// Every node ran (or was salvaged) to success.
    Completed(DagReport),
    /// At least one node exhausted its retries; every node not downstream
    /// of a failure ran to completion first.
    Halted {
        /// The persistent rescue artifact a resume run loads.
        rescue: RescueDag,
        /// Partial report: results of the nodes that did complete.
        report: DagReport,
    },
}

impl DagRun {
    /// The report of this run, completed or partial.
    pub fn report(&self) -> &DagReport {
        match self {
            DagRun::Completed(r) => r,
            DagRun::Halted { report, .. } => report,
        }
    }

    /// Collapse a halt into [`CondorError::DagNodeFailed`], for callers that
    /// do not resume: the first failed node is reported, with the rescue's
    /// done and pending node sets.
    pub fn into_result(self) -> Result<DagReport, CondorError> {
        let rescue = match self {
            DagRun::Completed(report) => return Ok(report),
            DagRun::Halted { rescue, .. } => rescue,
        };
        let (node, attempts, last_error) = rescue
            .nodes
            .iter()
            .find_map(|n| match &n.outcome {
                NodeOutcome::Failed {
                    attempts,
                    last_error,
                } => Some((n.name.clone(), *attempts, last_error.clone())),
                _ => None,
            })
            .unwrap_or(("<none>".to_string(), 0, "no failed node".to_string()));
        let names = |nodes: Vec<&str>| nodes.into_iter().map(str::to_string).collect();
        Err(CondorError::DagNodeFailed {
            node,
            attempts,
            last_error,
            progress: Box::new(DagProgress {
                done: names(rescue.done_nodes()),
                pending: names(rescue.pending_nodes()),
            }),
        })
    }
}

/// Execute a DAG on a condor pool to completion, for callers that do not
/// resume: a halt surfaces as [`CondorError::DagNodeFailed`] once every
/// node not downstream of the failure has finished. Use
/// [`run_dag_resumable`] to get the rescue DAG.
pub async fn run_dag(
    condor: &Condor,
    dag: &DagSpec,
    config: DagmanConfig,
) -> Result<DagReport, CondorError> {
    run_dag_resumable(condor, dag, config, None)
        .await?
        .into_result()
}

/// Execute a DAG the way real DAGMan does: a node that exhausts its retries
/// halts only its descendants, everything else runs to completion, and the
/// run then returns [`DagRun::Halted`] with the [`RescueDag`] it wrote.
/// Passing the rescue of a previous run as `resume` pre-marks its done
/// nodes — they are provably never resubmitted, and their recorded results
/// (output bytes, exact timestamps) are injected verbatim into the new
/// report.
#[allow(
    clippy::needless_range_loop,
    reason = "indices address parallel state vectors"
)]
pub async fn run_dag_resumable(
    condor: &Condor,
    dag: &DagSpec,
    config: DagmanConfig,
    resume: Option<&RescueDag>,
) -> Result<DagRun, CondorError> {
    dag.validate()?;
    if let Some(rescue) = resume {
        check_rescue_matches(dag, rescue)?;
    }
    let started = now();
    let obs = swf_obs::current();
    let root = obs.start_span(
        swf_obs::SpanContext::NONE,
        "condor/dagman",
        format!("workflow:{}", dag.name()),
        swf_obs::Category::Other,
    );
    // Node spans open at submission and close when DAGMan's poll observes
    // completion, so DAGMan reaction latency is attributed to the node.
    let mut node_spans: Vec<swf_obs::SpanContext> =
        vec![swf_obs::SpanContext::NONE; dag.nodes.len()];
    let mut poll_rng = swf_simcore::DetRng::new(started.as_nanos(), "dagman-poll");
    let mut states: Vec<NodeState> = dag
        .parents
        .iter()
        .map(|&p| {
            if p == 0 {
                NodeState::Ready
            } else {
                NodeState::Waiting { missing_parents: p }
            }
        })
        .collect();
    let mut results: BTreeMap<String, JobResult> = BTreeMap::new();
    let mut done = 0usize;
    let mut jobs_submitted = 0u32;
    let mut wasted = SimDuration::ZERO;
    // Per-node (attempts, last_error) of nodes that exhausted their retries.
    let mut failures: BTreeMap<usize, (u32, String)> = BTreeMap::new();

    // Inject the salvage: every node the rescue DAG marks DONE starts in
    // the Done state with its recorded result, is counted settled, and
    // unlocks its children — without ever being submitted.
    if let Some(rescue) = resume {
        let mut salvaged = SimDuration::ZERO;
        for (i, rnode) in rescue.nodes.iter().enumerate() {
            let NodeOutcome::Done { result } = &rnode.outcome else {
                continue;
            };
            results.insert(dag.nodes[i].name.clone(), result.clone());
            states[i] = NodeState::Done;
            done += 1;
            salvaged += result.execution_time();
        }
        for i in 0..dag.nodes.len() {
            if !matches!(states[i], NodeState::Done) {
                continue;
            }
            for &c in &dag.children[i] {
                if let NodeState::Waiting { missing_parents } = &mut states[c] {
                    *missing_parents -= 1;
                    if *missing_parents == 0 {
                        states[c] = NodeState::Ready;
                    }
                }
            }
        }
        obs.counter_add("dagman.nodes_salvaged", done as u64);
        obs.observe("dagman.salvaged_task_s", salvaged.as_secs_f64());
    }

    // Two indexes over `states`, so a tick costs what it touches and not
    // the DAG's width: `ready` holds the nodes a submit scan may pick
    // (`Ready`, and `Backoff` until it is due), `in_flight` the `Submitted`
    // ones. Both must stay in node order: a walk then visits nodes as a
    // scan of all of them would, so submissions, job ids, spans and RNG
    // draws come in the same order.
    let mut ready: Vec<usize> = (0..dag.nodes.len())
        .filter(|&i| matches!(states[i], NodeState::Ready))
        .collect();
    let mut in_flight: Vec<usize> = Vec::new();

    while done < dag.nodes.len() {
        // Submit every ready node — and every node whose backoff expired.
        ready.retain(|&i| {
            let attempt = match states[i] {
                NodeState::Ready => 0,
                NodeState::Backoff { until, attempt } if now() >= until => attempt,
                _ => return true,
            };
            if attempt == 0 {
                // First submission opens the node span; resubmissions reuse
                // it so retries stay attributed to the node.
                node_spans[i] = obs.start_span(
                    root,
                    "condor/dagman",
                    format!("node:{}", dag.nodes[i].name),
                    swf_obs::Category::Queue,
                );
            }
            let id = condor.submit(dag.nodes[i].job.clone().with_span(node_spans[i]));
            jobs_submitted += 1;
            insert_sorted(&mut in_flight, i);
            states[i] = NodeState::Submitted { id, attempt };
            false
        });
        let poll = if config.poll_jitter_cv > 0.0 {
            SimDuration::from_secs_f64(
                poll_rng.lognormal(config.poll_interval.as_secs_f64(), config.poll_jitter_cv),
            )
        } else {
            config.poll_interval
        };
        sleep(poll).await;
        // Poll submitted nodes.
        let mut k = 0;
        while let Some(&i) = in_flight.get(k) {
            let NodeState::Submitted { id, attempt } = states[i] else {
                k += 1;
                continue;
            };
            let result = match condor.status(id)? {
                JobStatus::Completed(result) => Some(result),
                // A removed node job (`condor_rm`) is a failed attempt
                // that never ran, as it is to HTCondor's DAGMan.
                JobStatus::Removed => None,
                JobStatus::Idle | JobStatus::Running(_) => {
                    k += 1;
                    continue;
                }
            };
            in_flight.remove(k);
            match result {
                Some(result) if result.success => {
                    obs.end(node_spans[i]);
                    results.insert(dag.nodes[i].name.clone(), result);
                    states[i] = NodeState::Done;
                    done += 1;
                    for &c in &dag.children[i] {
                        if let NodeState::Waiting { missing_parents } = &mut states[c] {
                            *missing_parents -= 1;
                            if *missing_parents == 0 {
                                states[c] = NodeState::Ready;
                                insert_sorted(&mut ready, c);
                            }
                        }
                    }
                    continue;
                }
                // The attempt ran and failed: its execution time is wasted
                // compute, the other side of goodput accounting.
                Some(ref result) => wasted += result.execution_time(),
                None => {}
            }
            if attempt < dag.nodes[i].retries {
                obs.counter_add("dagman.node_retries", 1);
                // A zero delay is due at once: the submit scan the loop
                // returns to without sleeping resubmits it at this same
                // instant.
                let delay = config.retry.delay_for(attempt + 1);
                states[i] = NodeState::Backoff {
                    until: now() + delay,
                    attempt: attempt + 1,
                };
                insert_sorted(&mut ready, i);
                continue;
            }
            obs.end(node_spans[i]);
            obs.counter_add("dagman.node_failures", 1);
            let last_error = match result {
                Some(result) => String::from_utf8_lossy(&result.output).to_string(),
                None => CondorError::JobRemoved(id).to_string(),
            };
            failures.insert(i, (attempt + 1, last_error));
            states[i] = NodeState::Failed;
            done += 1;
            // Everything downstream of the failure can never run; settle it
            // as futile so the run halts once the independent siblings
            // finish. Strict descendants are necessarily still Waiting
            // (this node never completed).
            let mut stack = dag.children[i].clone();
            while let Some(c) = stack.pop() {
                if matches!(states[c], NodeState::Waiting { .. }) {
                    states[c] = NodeState::Futile;
                    done += 1;
                    stack.extend(dag.children[c].iter().copied());
                }
            }
        }
    }

    obs.end(root);
    let report = DagReport {
        node_results: results,
        started,
        finished: now(),
        jobs_submitted,
        wasted_compute: wasted,
    };
    if failures.is_empty() {
        return Ok(DagRun::Completed(report));
    }
    // At least one node failed: write the rescue DAG.
    obs.counter_add("dagman.rescues_written", 1);
    obs.observe("dagman.wasted_task_s", wasted.as_secs_f64());
    let nodes = dag
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let outcome = if let Some(result) = report.node_results.get(&n.name) {
                NodeOutcome::Done {
                    result: result.clone(),
                }
            } else if let Some((attempts, last_error)) = failures.get(&i) {
                NodeOutcome::Failed {
                    attempts: *attempts,
                    last_error: last_error.clone(),
                }
            } else {
                NodeOutcome::Pending
            };
            RescueNode {
                name: n.name.clone(),
                outcome,
            }
        })
        .collect();
    Ok(DagRun::Halted {
        rescue: RescueDag {
            workflow: dag.name().to_string(),
            written_at: now(),
            nodes,
        },
        report,
    })
}

/// Insert node `i` into an ascending node index, keeping it ascending.
fn insert_sorted(index: &mut Vec<usize>, i: usize) {
    let at = index.partition_point(|&j| j < i);
    index.insert(at, i);
}

/// A resume must target the same DAG that wrote the rescue: same workflow
/// name, same node count, same node names in the same order.
fn check_rescue_matches(dag: &DagSpec, rescue: &RescueDag) -> Result<(), CondorError> {
    if rescue.workflow != dag.name() {
        return Err(CondorError::InvalidDag(format!(
            "rescue dag is for workflow {:?}, not {:?}",
            rescue.workflow,
            dag.name()
        )));
    }
    if rescue.nodes.len() != dag.nodes.len() {
        return Err(CondorError::InvalidDag(format!(
            "rescue dag has {} nodes, DAG has {}",
            rescue.nodes.len(),
            dag.nodes.len()
        )));
    }
    for (i, (r, n)) in rescue.nodes.iter().zip(dag.nodes.iter()).enumerate() {
        if r.name != n.name {
            return Err(CondorError::InvalidDag(format!(
                "rescue dag node {i} is {:?}, DAG has {:?}",
                r.name, n.name
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobContext;
    use crate::pool::CondorConfig;
    use bytes::Bytes;
    use std::cell::RefCell;
    use std::rc::Rc;
    use swf_cluster::{Cluster, ClusterConfig};
    use swf_simcore::{secs, Sim};

    fn fast_pool() -> Condor {
        let cluster = Cluster::new(&ClusterConfig::default());
        Condor::start(
            &cluster,
            CondorConfig {
                negotiator: crate::negotiator::NegotiatorConfig {
                    cycle_interval: secs(1.0),
                    match_latency: SimDuration::ZERO,
                    ..crate::negotiator::NegotiatorConfig::default()
                },
                startd: crate::startd::StartdConfig {
                    job_start_overhead: SimDuration::from_millis(50),
                },
            },
        )
    }

    fn compute_job(d: f64) -> JobSpec {
        JobSpec::new(move |ctx: JobContext| {
            Box::pin(async move {
                ctx.compute(secs(d)).await;
                Ok(Bytes::new())
            })
        })
    }

    #[test]
    fn chain_runs_in_order() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let order: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
            let mut dag = DagSpec::new();
            let mut prev = None;
            for i in 0..4u32 {
                let order = Rc::clone(&order);
                let job = JobSpec::new(move |_ctx| {
                    let order = Rc::clone(&order);
                    Box::pin(async move {
                        order.borrow_mut().push(i);
                        Ok(Bytes::new())
                    })
                });
                let idx = dag.add_node(format!("t{i}"), job);
                if let Some(p) = prev {
                    dag.add_edge(p, idx).unwrap();
                }
                prev = Some(idx);
            }
            let report = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap();
            assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
            assert_eq!(report.node_results.len(), 4);
            assert_eq!(report.jobs_submitted, 4);
            assert!(report.makespan() > SimDuration::ZERO);
        });
    }

    #[test]
    fn diamond_joins_wait_for_both_parents() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let mut dag = DagSpec::new();
            let a = dag.add_node("a", compute_job(0.1));
            let b = dag.add_node("b", compute_job(2.0));
            let c = dag.add_node("c", compute_job(0.1));
            let d = dag.add_node("d", compute_job(0.1));
            dag.add_edge(a, b).unwrap();
            dag.add_edge(a, c).unwrap();
            dag.add_edge(b, d).unwrap();
            dag.add_edge(c, d).unwrap();
            let report = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap();
            let rb = &report.node_results["b"];
            let rc = &report.node_results["c"];
            let rd = &report.node_results["d"];
            assert!(rd.started >= rb.finished);
            assert!(rd.started >= rc.finished);
        });
    }

    #[test]
    fn cycle_is_rejected() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let mut dag = DagSpec::new();
            let a = dag.add_node("a", compute_job(0.1));
            let b = dag.add_node("b", compute_job(0.1));
            dag.add_edge(a, b).unwrap();
            dag.add_edge(b, a).unwrap();
            let err = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap_err();
            assert!(matches!(err, CondorError::InvalidDag(_)));
            assert!(dag.add_edge(0, 9).is_err());
            assert!(dag.add_edge(0, 0).is_err());
        });
    }

    #[test]
    fn retries_recover_flaky_nodes() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            // Start instant of every attempt.
            let attempts = Rc::new(RefCell::new(Vec::new()));
            let attempts2 = Rc::clone(&attempts);
            let flaky = JobSpec::new(move |_ctx| {
                let attempts = Rc::clone(&attempts2);
                Box::pin(async move {
                    let mut a = attempts.borrow_mut();
                    a.push(now());
                    if a.len() < 3 {
                        Err("flaky".to_string())
                    } else {
                        Ok(Bytes::new())
                    }
                })
            });
            let mut dag = DagSpec::new();
            dag.add_node_with_retries("flaky", flaky, 3);
            dag.add_node("other", compute_job(0.1));
            let report = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap();
            assert_eq!(report.jobs_submitted, 4);
            // A zero-delay retry is resubmitted at the poll that saw the
            // failure, not one later: attempt k starts within a negotiation
            // cycle of the 5k s poll.
            let starts: Vec<f64> = attempts.borrow().iter().map(|t| t.as_secs_f64()).collect();
            assert_eq!(starts.len(), 3);
            for (k, start) in starts.iter().enumerate() {
                assert!(
                    (5.0 * k as f64..5.0 * k as f64 + 2.0).contains(start),
                    "{starts:?}"
                );
            }
        });
    }

    #[test]
    fn exhausted_retries_fail_the_dag() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let mut dag = DagSpec::new();
            dag.add_node_with_retries(
                "doomed",
                JobSpec::new(|_ctx| Box::pin(async { Err("always fails".to_string()) })),
                1,
            );
            let err = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap_err();
            match err {
                CondorError::DagNodeFailed { node, attempts, .. } => {
                    assert_eq!(node, "doomed");
                    assert_eq!(attempts, 2);
                }
                other => panic!("unexpected {other}"),
            }
        });
    }

    #[test]
    fn backoff_spaces_retries_deterministically() {
        let run = |retry: RetryPolicy| {
            let sim = Sim::new();
            sim.block_on(async move {
                let condor = fast_pool();
                let attempts = Rc::new(RefCell::new(0u32));
                let attempts2 = Rc::clone(&attempts);
                let flaky = JobSpec::new(move |_ctx| {
                    let attempts = Rc::clone(&attempts2);
                    Box::pin(async move {
                        let mut a = attempts.borrow_mut();
                        *a += 1;
                        if *a < 3 {
                            Err("flaky".to_string())
                        } else {
                            Ok(Bytes::new())
                        }
                    })
                });
                let mut dag = DagSpec::new();
                dag.add_node_with_retries("flaky", flaky, 3);
                let report = run_dag(
                    &condor,
                    &dag,
                    DagmanConfig {
                        poll_interval: secs(1.0),
                        retry,
                        ..DagmanConfig::default()
                    },
                )
                .await
                .unwrap();
                assert_eq!(*attempts.borrow(), 3);
                report.makespan()
            })
        };
        let immediate = run(RetryPolicy::immediate(4));
        let spaced = run(RetryPolicy::exponential(4, secs(3.0), secs(30.0)));
        let replay = run(RetryPolicy::exponential(4, secs(3.0), secs(30.0)));
        // Two backed-off resubmissions (3 s then 6 s, rounded up to poll
        // ticks) must stretch the makespan past the immediate schedule.
        assert!(spaced >= immediate + secs(9.0) - secs(2.0));
        // And the schedule replays bitwise.
        assert_eq!(
            spaced.as_secs_f64().to_bits(),
            replay.as_secs_f64().to_bits()
        );
    }

    #[test]
    fn wide_dag_with_backoff_submits_in_node_order() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            // (node, job) of every attempt.
            let runs: Rc<RefCell<Vec<(usize, JobId)>>> = Rc::new(RefCell::new(Vec::new()));
            let mut dag = DagSpec::new();
            for node in 0..9 {
                let runs = Rc::clone(&runs);
                let job = JobSpec::new(move |ctx: JobContext| {
                    let runs = Rc::clone(&runs);
                    Box::pin(async move {
                        let attempt = {
                            let mut runs = runs.borrow_mut();
                            runs.push((node, ctx.job));
                            runs.iter().filter(|&&(n, _)| n == node).count()
                        };
                        ctx.compute(secs(0.5)).await;
                        // Every third node fails its first two attempts.
                        if node % 3 == 0 && attempt < 3 {
                            Err("flaky".to_string())
                        } else {
                            Ok(Bytes::new())
                        }
                    })
                });
                dag.add_node_with_retries(format!("n{node}"), job, 2);
            }
            let config = DagmanConfig {
                poll_interval: secs(1.0),
                retry: RetryPolicy::exponential(3, secs(1.0), secs(10.0)),
                ..DagmanConfig::default()
            };
            let report = run_dag(&condor, &dag, config).await.unwrap();
            assert_eq!(report.node_results.len(), 9);
            assert_eq!(report.jobs_submitted, 9 + 3 * 2);
            // Jobs submitted at one poll carry ascending ids, and ascending
            // ids there mean ascending node index: retries re-enter the
            // ready set at their node's place, not at its end.
            let mut by_job = runs.borrow().clone();
            by_job.sort_by_key(|&(_, job)| job);
            let schedd = condor.schedd();
            for pair in by_job.windows(2) {
                let [(a_node, a_job), (b_node, b_job)] = [pair[0], pair[1]];
                if schedd.submitted_at(a_job).unwrap() == schedd.submitted_at(b_job).unwrap() {
                    assert!(a_node < b_node, "{by_job:?}");
                }
            }
            // And the backoff did interleave retries with fresh nodes: some
            // later job runs an earlier node.
            assert!(by_job.windows(2).any(|p| p[0].0 > p[1].0), "{by_job:?}");
        });
    }

    #[test]
    fn a_removed_node_job_is_a_failed_attempt_and_halts_with_a_rescue() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            // Wider than any startd, so the job stays Idle until removed.
            let mut stuck = compute_job(0.1);
            stuck.request_cpus = 64;
            let mut dag = DagSpec::named("wf-rm");
            let s = dag.add_node_with_retries("stuck", stuck, 1);
            let after = dag.add_node("after", compute_job(0.1));
            dag.add_edge(s, after).unwrap();
            dag.add_node("ok", compute_job(0.1));
            // `condor_rm` every attempt of the stuck node.
            let schedd = condor.schedd().clone();
            swf_simcore::spawn(async move {
                loop {
                    swf_simcore::sleep(secs(0.5)).await;
                    for id in schedd.idle_jobs() {
                        if schedd.request_cpus(id).unwrap() == 64 {
                            schedd.remove(id).unwrap();
                        }
                    }
                }
            });
            let run = run_dag_resumable(&condor, &dag, DagmanConfig::default(), None)
                .await
                .unwrap();
            let DagRun::Halted { rescue, report } = run else {
                panic!("expected a halted run");
            };
            assert_eq!(rescue.failed_nodes(), vec!["stuck"]);
            assert_eq!(rescue.pending_nodes(), vec!["after"]);
            assert_eq!(rescue.done_nodes(), vec!["ok"]);
            // One retry, as for any failed attempt; neither ran.
            assert_eq!(report.jobs_submitted, 3);
            assert_eq!(report.wasted_compute, SimDuration::ZERO);
            let NodeOutcome::Failed {
                attempts,
                last_error,
            } = &rescue.nodes[s].outcome
            else {
                panic!("stuck must be recorded failed");
            };
            assert_eq!(*attempts, 2);
            assert!(last_error.contains("removed"), "{last_error}");
            // Halted at the poll after the second removal, not never.
            assert_eq!(now(), SimTime::ZERO + secs(10.0));
        });
    }

    #[test]
    fn run_dag_reports_a_failure_after_independent_siblings_finish() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let mut dag = DagSpec::new();
            // fast -> doomed -> child, with an independent slow sibling that
            // is still running when doomed exhausts its retries.
            let fast = dag.add_node("fast", compute_job(0.1));
            let doomed = dag.add_node(
                "doomed",
                JobSpec::new(|_ctx| Box::pin(async { Err("always fails".to_string()) })),
            );
            let child = dag.add_node("child", compute_job(0.1));
            dag.add_node("slow-sibling", compute_job(500.0));
            dag.add_edge(fast, doomed).unwrap();
            dag.add_edge(doomed, child).unwrap();
            let err = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap_err();
            match err {
                CondorError::DagNodeFailed { node, progress, .. } => {
                    assert_eq!(node, "doomed");
                    assert_eq!(progress.done, vec!["fast", "slow-sibling"]);
                    assert_eq!(progress.pending, vec!["child"]);
                }
                other => panic!("unexpected {other}"),
            }
            // The failure surfaces only once the sibling has completed.
            assert!(now() >= SimTime::from_nanos(0) + secs(500.0));
        });
    }

    #[test]
    fn continue_others_runs_independent_siblings_and_writes_a_rescue() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let mut dag = DagSpec::named("wf-rescue");
            // doomed -> child (futile); three independent siblings must all
            // still complete after the failure.
            let doomed = dag.add_node(
                "doomed",
                JobSpec::new(|_ctx| Box::pin(async { Err("always fails".to_string()) })),
            );
            let child = dag.add_node("child", compute_job(0.1));
            dag.add_edge(doomed, child).unwrap();
            for i in 0..3 {
                dag.add_node(format!("sib{i}"), compute_job(5.0 + i as f64));
            }
            let config = DagmanConfig::default();
            let run = run_dag_resumable(&condor, &dag, config, None)
                .await
                .unwrap();
            let DagRun::Halted { rescue, report } = run else {
                panic!("expected a halted run");
            };
            assert_eq!(rescue.workflow, "wf-rescue");
            assert_eq!(rescue.done_nodes(), vec!["sib0", "sib1", "sib2"]);
            assert_eq!(rescue.failed_nodes(), vec!["doomed"]);
            assert_eq!(rescue.pending_nodes(), vec!["child"]);
            assert_eq!(report.node_results.len(), 3);
            // Only the doomed node's single short attempt is wasted.
            assert!(report.wasted_compute.as_secs_f64() < 1.0);
            // Round-trips through its JSON text form.
            let back = RescueDag::parse(&rescue.to_string()).unwrap();
            assert_eq!(rescue, back);
        });
    }

    #[test]
    fn resume_reexecutes_zero_done_nodes_bit_identically() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            // Per-node execution counters prove what actually ran.
            let execs: Rc<RefCell<BTreeMap<String, u32>>> = Rc::new(RefCell::new(BTreeMap::new()));
            // The doomed node fails on its first life and succeeds after
            // resume (the "operator fixed it" scenario).
            let fixed = Rc::new(RefCell::new(false));
            let counted = |name: &str, out: &'static [u8]| {
                let execs = Rc::clone(&execs);
                let name = name.to_string();
                let out = Bytes::from_static(out);
                JobSpec::new(move |ctx: JobContext| {
                    let execs = Rc::clone(&execs);
                    let name = name.clone();
                    let out = out.clone();
                    Box::pin(async move {
                        ctx.compute(secs(1.0)).await;
                        *execs.borrow_mut().entry(name).or_insert(0) += 1;
                        Ok(out)
                    })
                })
            };
            let mut dag = DagSpec::named("wf");
            let a = dag.add_node("a", counted("a", b"\x00\xffout-a"));
            let fixed2 = Rc::clone(&fixed);
            let execs2 = Rc::clone(&execs);
            let b = dag.add_node(
                "b",
                JobSpec::new(move |_ctx| {
                    let fixed = Rc::clone(&fixed2);
                    let execs = Rc::clone(&execs2);
                    Box::pin(async move {
                        *execs.borrow_mut().entry("b".into()).or_insert(0) += 1;
                        if *fixed.borrow() {
                            Ok(Bytes::from_static(b"out-b"))
                        } else {
                            Err("broken dependency".to_string())
                        }
                    })
                }),
            );
            let c = dag.add_node("c", counted("c", b"out-c"));
            dag.add_edge(a, b).unwrap();
            dag.add_edge(b, c).unwrap();
            dag.add_node("side", counted("side", b"out-side"));
            let config = DagmanConfig::default();
            let DagRun::Halted { rescue, .. } = run_dag_resumable(&condor, &dag, config, None)
                .await
                .unwrap()
            else {
                panic!("expected a halted first run");
            };
            assert_eq!(rescue.done_nodes(), vec!["a", "side"]);
            let first_execs = execs.borrow().clone();
            let first_a = rescue.nodes[0].clone();

            // Resume from the persisted JSON text, not the in-memory value:
            // the round trip is part of what is being proven.
            *fixed.borrow_mut() = true;
            let reloaded = RescueDag::parse(&rescue.to_string()).unwrap();
            let run = run_dag_resumable(&condor, &dag, config, Some(&reloaded))
                .await
                .unwrap();
            let DagRun::Completed(report) = run else {
                panic!("expected the resumed run to complete");
            };
            // Done nodes ran exactly once across both lives...
            assert_eq!(execs.borrow()["a"], 1);
            assert_eq!(execs.borrow()["side"], 1);
            assert_eq!(execs.borrow()["c"], 1);
            assert_eq!(first_execs["a"], 1);
            // ...and the salvaged result is bit-identical to the recording,
            // exact timestamps included.
            let NodeOutcome::Done { result } = &first_a.outcome else {
                panic!("node a must be recorded done");
            };
            assert_eq!(&report.node_results["a"], result);
            assert_eq!(&report.node_results["a"].output[..], b"\x00\xffout-a");
            assert_eq!(report.node_results.len(), 4);
        });
    }

    #[test]
    fn resume_rejects_a_mismatched_rescue() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let mut dag = DagSpec::named("wf");
            dag.add_node("a", compute_job(0.1));
            let rescue = RescueDag {
                workflow: "other".into(),
                written_at: SimTime::from_nanos(0),
                nodes: vec![RescueNode {
                    name: "a".into(),
                    outcome: NodeOutcome::Pending,
                }],
            };
            let err = run_dag_resumable(&condor, &dag, DagmanConfig::default(), Some(&rescue))
                .await
                .unwrap_err();
            assert!(matches!(err, CondorError::InvalidDag(_)));
            let rescue = RescueDag {
                workflow: "wf".into(),
                written_at: SimTime::from_nanos(0),
                nodes: Vec::new(),
            };
            let err = run_dag_resumable(&condor, &dag, DagmanConfig::default(), Some(&rescue))
                .await
                .unwrap_err();
            assert!(matches!(err, CondorError::InvalidDag(_)));
        });
    }

    #[test]
    fn empty_dag_completes_immediately() {
        let sim = Sim::new();
        sim.block_on(async {
            let condor = fast_pool();
            let dag = DagSpec::new();
            assert!(dag.is_empty());
            let report = run_dag(&condor, &dag, DagmanConfig::default())
                .await
                .unwrap();
            assert_eq!(report.node_results.len(), 0);
            assert_eq!(report.makespan(), SimDuration::ZERO);
        });
    }
}
