//! Pool assembly: schedd + one startd per worker + negotiator.

use swf_cluster::{Cluster, NodeId};
use swf_simcore::spawn;

use crate::error::CondorError;
use crate::job::{JobId, JobResult, JobSpec, JobStatus};
use crate::negotiator::{Negotiator, NegotiatorConfig};
use crate::schedd::Schedd;
use crate::startd::{Startd, StartdConfig};

/// Pool-wide configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct CondorConfig {
    /// Negotiator parameters.
    pub negotiator: NegotiatorConfig,
    /// Startd parameters.
    pub startd: StartdConfig,
}

/// A running HTCondor-style pool.
#[derive(Clone)]
pub struct Condor {
    schedd: Schedd,
    startds: Vec<Startd>,
}

impl Condor {
    /// Boot the pool: schedd on the submit node, a startd per worker node,
    /// negotiator loop spawned.
    pub fn start(cluster: &Cluster, config: CondorConfig) -> Condor {
        let schedd = Schedd::new();
        let startds: Vec<Startd> = cluster
            .worker_nodes()
            .iter()
            .map(|n| Startd::new(n.clone(), cluster.clone(), config.startd))
            .collect();
        spawn(Negotiator::new(schedd.clone(), startds.clone(), config.negotiator).run());
        Condor { schedd, startds }
    }

    /// Submit a job.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        self.schedd.submit(spec)
    }

    /// Job status.
    pub fn status(&self, id: JobId) -> Result<JobStatus, CondorError> {
        self.schedd.status(id)
    }

    /// Await completion.
    pub async fn wait(&self, id: JobId) -> Result<JobResult, CondorError> {
        self.schedd.wait(id).await
    }

    /// The schedd (queue inspection).
    pub fn schedd(&self) -> &Schedd {
        &self.schedd
    }

    /// The startd pool.
    pub fn startds(&self) -> &[Startd] {
        &self.startds
    }

    /// Total slots across the pool.
    pub fn total_slots(&self) -> usize {
        self.startds.iter().map(|s| s.total_slots()).sum()
    }

    /// Free slots across the pool.
    pub fn free_slots(&self) -> usize {
        self.startds.iter().map(|s| s.free_slots()).sum()
    }

    /// The startd of a worker node, if it has one.
    pub fn startd(&self, node: NodeId) -> Option<&Startd> {
        self.startds.iter().find(|s| s.node().id() == node)
    }

    /// Drain a worker: running jobs complete, no new matches land there
    /// (`condor_drain`). Returns false if the node has no startd.
    pub fn drain_node(&self, node: NodeId) -> bool {
        self.startd(node).map(Startd::drain).is_some()
    }

    /// Resume matching on a drained worker.
    pub fn undrain_node(&self, node: NodeId) -> bool {
        self.startd(node).map(Startd::undrain).is_some()
    }

    /// Crash a worker (fault injection): the negotiator stops matching
    /// there and every job Running on it is reclaimed to Idle under a new
    /// claim epoch, so the next cycle re-matches the stranded work onto
    /// healthy nodes. Late reports from the lost claims are discarded.
    /// Returns false when the node has no startd.
    pub fn fail_node(&self, node: NodeId) -> bool {
        let Some(s) = self.startd(node) else {
            return false;
        };
        s.fail();
        let requeued = self.schedd.requeue_running_on(node);
        let obs = swf_obs::current();
        obs.counter_add("condor.node_failures", 1);
        if !requeued.is_empty() {
            obs.counter_add("condor.stranded_jobs", requeued.len() as u64);
        }
        true
    }

    /// Bring a crashed worker back: the negotiator may match there again.
    pub fn recover_node(&self, node: NodeId) -> bool {
        self.startd(node).map(Startd::recover).is_some()
    }

    /// Is the worker currently crashed?
    pub fn node_is_failed(&self, node: NodeId) -> bool {
        self.startd(node).is_some_and(Startd::is_failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobContext;
    use crate::negotiator::MATCH_LATENCY;
    use bytes::Bytes;
    use swf_cluster::ClusterConfig;
    use swf_simcore::{millis, secs, Sim, SimDuration, SimTime};

    fn crash_rig() -> (Cluster, Condor) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let condor = Condor::start(
            &cluster,
            CondorConfig {
                negotiator: NegotiatorConfig {
                    cycle_interval: secs(1.0),
                    cycle_jitter_cv: 0.0,
                    activation_delay: SimDuration::ZERO,
                    ..NegotiatorConfig::default()
                },
                ..CondorConfig::default()
            },
        );
        (cluster, condor)
    }

    async fn stranded_job_scenario() -> (swf_cluster::NodeId, crate::job::JobResult) {
        let (_cluster, condor) = crash_rig();
        let id = condor.submit(JobSpec::new(|ctx: JobContext| {
            Box::pin(async move {
                ctx.compute(secs(10.0)).await;
                Ok(Bytes::from_static(b"long"))
            })
        }));
        // Matched at the t=1 cycle; crash the node mid-execution.
        swf_simcore::sleep(secs(2.0)).await;
        let victim = match condor.status(id).unwrap() {
            JobStatus::Running(node) => node,
            other => panic!("expected Running, got {other:?}"),
        };
        assert!(condor.fail_node(victim));
        assert!(condor.node_is_failed(victim));
        // Reclaimed immediately: back to Idle for the next cycle.
        assert_eq!(condor.status(id).unwrap(), JobStatus::Idle);
        let r = condor.wait(id).await.unwrap();
        assert!(condor.recover_node(victim));
        assert!(!condor.node_is_failed(victim));
        (victim, r)
    }

    #[test]
    fn stranded_job_is_rematched_after_node_loss_deterministically() {
        let run = || {
            let sim = Sim::new();
            sim.block_on(async { stranded_job_scenario().await })
        };
        let (victim_a, ra) = run();
        let (victim_b, rb) = run();
        assert!(ra.success);
        assert_ne!(ra.node, victim_a, "re-match must avoid the crashed node");
        // The stale claim (crashed node) never shadows the re-match.
        assert_eq!(&ra.output[..], b"long");
        // Deterministic retry timing: both runs agree bitwise.
        assert_eq!(victim_a, victim_b);
        assert_eq!(ra.node, rb.node);
        assert_eq!(
            ra.finished.as_secs_f64().to_bits(),
            rb.finished.as_secs_f64().to_bits()
        );
        // The t=1 cycle's match pushed the next cycle to 2 s plus one match
        // latency, after the crash; the re-match takes another, then 0.8 s
        // start overhead and a fresh 10 s of compute.
        assert_eq!(
            ra.finished,
            SimTime::ZERO + secs(2.0) + MATCH_LATENCY + MATCH_LATENCY + millis(800) + secs(10.0)
        );
    }

    #[test]
    fn failing_an_unknown_node_is_a_no_op() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, condor) = crash_rig();
            assert!(!condor.fail_node(swf_cluster::NodeId(99)));
            assert!(!condor.recover_node(swf_cluster::NodeId(99)));
            assert!(!condor.node_is_failed(swf_cluster::NodeId(99)));
        });
    }

    #[test]
    fn pool_boots_and_runs_a_job() {
        let sim = Sim::new();
        sim.block_on(async {
            let cluster = Cluster::new(&ClusterConfig::default());
            let condor = Condor::start(
                &cluster,
                CondorConfig {
                    negotiator: NegotiatorConfig {
                        cycle_interval: secs(2.0),
                        ..NegotiatorConfig::default()
                    },
                    ..CondorConfig::default()
                },
            );
            assert_eq!(condor.total_slots(), 24);
            let id = condor.submit(JobSpec::new(|ctx: JobContext| {
                Box::pin(async move {
                    ctx.compute(secs(0.458)).await;
                    Ok(Bytes::from_static(b"matmul"))
                })
            }));
            let r = condor.wait(id).await.unwrap();
            assert!(r.success);
            assert_eq!(&r.output[..], b"matmul");
            assert_eq!(condor.free_slots(), 24);
            assert_eq!(condor.schedd().completed_total(), 1);
        });
    }
}
