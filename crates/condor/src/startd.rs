//! The startd: per-node execution agent with slot management and sandbox
//! file transfer.
//!
//! One slot per core. A matched job claims its requested slots, pays the
//! starter overhead, stages inputs from the submit node into a node-local
//! sandbox, runs its program, stages outputs back, and reports completion
//! to the schedd. The synchronous stage-in/stage-out is what makes the
//! paper's traditional containerized path expensive (container images and
//! matrices both ride this channel).

use swf_cluster::{Cluster, Node};
use swf_simcore::sync::Semaphore;
use swf_simcore::{now, sleep, SimDuration};

use crate::error::CondorError;
use crate::job::{JobContext, JobId, JobResult, JobSpec, JobStatus};
use crate::schedd::Schedd;

/// Startd parameters.
#[derive(Clone, Copy, Debug)]
pub struct StartdConfig {
    /// Starter process fork + environment setup per job.
    pub job_start_overhead: SimDuration,
}

impl Default for StartdConfig {
    fn default() -> Self {
        StartdConfig {
            job_start_overhead: SimDuration::from_millis(800),
        }
    }
}

/// Per-node execution agent.
#[derive(Clone)]
pub struct Startd {
    node: Node,
    cluster: Cluster,
    slots: Semaphore,
    config: StartdConfig,
    draining: std::rc::Rc<std::cell::Cell<bool>>,
    failed: std::rc::Rc<std::cell::Cell<bool>>,
}

impl Startd {
    /// Startd with one slot per core of `node`.
    pub fn new(node: Node, cluster: Cluster, config: StartdConfig) -> Self {
        let slots = Semaphore::new(node.cores().capacity());
        Startd {
            node,
            cluster,
            slots,
            config,
            draining: std::rc::Rc::new(std::cell::Cell::new(false)),
            failed: std::rc::Rc::new(std::cell::Cell::new(false)),
        }
    }

    /// Start draining: running jobs finish, but the negotiator stops
    /// matching new jobs here (`condor_drain` semantics).
    pub fn drain(&self) {
        self.draining.set(true);
    }

    /// Resume accepting matches.
    pub fn undrain(&self) {
        self.draining.set(false);
    }

    /// Is the startd draining?
    pub fn is_draining(&self) -> bool {
        self.draining.get()
    }

    /// Crash the node (fault injection): the negotiator stops matching
    /// here and the schedd reclaims its running jobs. Unlike draining,
    /// in-flight work is lost — its eventual status reports carry a stale
    /// claim epoch and are discarded.
    pub fn fail(&self) {
        self.failed.set(true);
    }

    /// Bring a crashed startd back into the pool.
    pub fn recover(&self) {
        self.failed.set(false);
    }

    /// Is the startd crashed?
    pub fn is_failed(&self) -> bool {
        self.failed.get()
    }

    /// The node this startd manages.
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Slots not currently claimed.
    pub fn free_slots(&self) -> usize {
        self.slots.available()
    }

    /// Total slots.
    pub fn total_slots(&self) -> usize {
        self.slots.capacity()
    }

    /// Execute a matched job to completion, reporting status to `schedd`
    /// under the claim epoch current at entry. Kept for direct callers
    /// (tests, ad-hoc rigs); the negotiator captures the epoch at match
    /// time and calls [`Startd::execute_claim`].
    pub async fn execute(&self, id: JobId, spec: JobSpec, schedd: Schedd) {
        let epoch = schedd.epoch(id).unwrap_or(0);
        self.execute_claim(id, epoch, spec, schedd).await;
    }

    /// Execute a matched job to completion, reporting status to `schedd`.
    /// Called (spawned) by the negotiator after a successful match. All
    /// status writes carry `epoch`: if the schedd reclaims the job (node
    /// loss) while this claim is in flight, the writes are discarded and
    /// the re-matched claim owns the job record.
    pub async fn execute_claim(&self, id: JobId, epoch: u64, spec: JobSpec, schedd: Schedd) {
        let _slots = self
            .slots
            .acquire_many(spec.request_cpus.max(1) as usize)
            .await;
        schedd.set_status_epoch(id, epoch, JobStatus::Running(self.node.id()));
        let started = now();
        let obs = swf_obs::current();
        let component = format!("{}/startd", self.node.name());
        let boot = obs.span(
            spec.span,
            &component,
            format!("job-start:{id}"),
            swf_obs::Category::Activation,
        );
        sleep(self.config.job_start_overhead).await;
        drop(boot);

        let sandbox = format!("sandbox/{id}/");
        let outcome = self.run_in_sandbox(id, &spec, &sandbox).await;

        let (success, output) = match outcome {
            Ok(bytes) => (true, bytes),
            Err(e) => (false, bytes::Bytes::from(e.to_string())),
        };
        let accepted = schedd.set_status_epoch(
            id,
            epoch,
            JobStatus::Completed(JobResult {
                success,
                output,
                node: self.node.id(),
                started,
                finished: now(),
            }),
        );
        if !accepted {
            // The schedd reclaimed the job while this node was lost; the
            // work is wasted but must not shadow the re-matched attempt.
            swf_obs::current().counter_add("condor.stale_completions", 1);
        }
    }

    async fn run_in_sandbox(
        &self,
        id: JobId,
        spec: &JobSpec,
        sandbox: &str,
    ) -> Result<bytes::Bytes, CondorError> {
        let obs = swf_obs::current();
        let component = format!("{}/startd", self.node.name());
        // Stage in: submit node shared fs → node-local sandbox.
        if !spec.input_files.is_empty() {
            let stage = obs.span(
                spec.span,
                &component,
                format!("stage-in:{id}"),
                swf_obs::Category::Transfer,
            );
            for f in &spec.input_files {
                let data = self
                    .cluster
                    .shared_read_from(self.node.id(), f)
                    .await
                    .map_err(|_| CondorError::MissingInput(f.clone()))?;
                self.node.fs().write(format!("{sandbox}{f}"), data).await;
            }
            drop(stage);
        }
        let exec = obs.span(
            spec.span,
            &component,
            format!("execute:{id}"),
            swf_obs::Category::Compute,
        );
        let ctx = JobContext {
            job: id,
            node: self.node.clone(),
            cluster: self.cluster.clone(),
            sandbox: sandbox.to_string(),
            span: exec.ctx(),
        };
        let result = (spec.program)(ctx).await;
        drop(exec);
        let bytes = match result {
            Ok(b) => b,
            Err(e) => {
                self.cleanup_sandbox(sandbox);
                return Err(CondorError::DagNodeFailed {
                    node: id.to_string(),
                    attempts: 1,
                    last_error: e,
                    progress: Box::default(),
                });
            }
        };
        // Stage out: sandbox → submit node shared fs.
        if !spec.output_files.is_empty() {
            let stage = obs.span(
                spec.span,
                &component,
                format!("stage-out:{id}"),
                swf_obs::Category::Transfer,
            );
            for f in &spec.output_files {
                let path = format!("{sandbox}{f}");
                let data = self
                    .node
                    .fs()
                    .read(&path)
                    .await
                    .map_err(|_| CondorError::MissingOutput(f.clone()))?;
                self.cluster
                    .shared_write_from(self.node.id(), f.clone(), data)
                    .await
                    .map_err(|e| CondorError::MissingOutput(format!("{f}: {e}")))?;
            }
            drop(stage);
        }
        self.cleanup_sandbox(sandbox);
        Ok(bytes)
    }

    fn cleanup_sandbox(&self, sandbox: &str) {
        for f in self.node.fs().list() {
            if f.starts_with(sandbox) {
                self.node.fs().remove(&f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use swf_cluster::ClusterConfig;
    use swf_simcore::{secs, Sim};

    fn rig() -> (Cluster, Startd, Schedd) {
        let cluster = Cluster::new(&ClusterConfig::default());
        let node = cluster.worker_nodes()[0].clone();
        let startd = Startd::new(node, cluster.clone(), StartdConfig::default());
        (cluster, startd, Schedd::new())
    }

    #[test]
    fn execute_stages_inputs_runs_and_stages_outputs() {
        let sim = Sim::new();
        sim.block_on(async {
            let (cluster, startd, schedd) = rig();
            cluster
                .shared_fs()
                .stage("in.mat", Bytes::from(vec![7u8; 1024]));
            let spec = JobSpec::new(|ctx: JobContext| {
                Box::pin(async move {
                    let data = ctx
                        .node
                        .fs()
                        .read(&ctx.sandbox_path("in.mat"))
                        .await
                        .map_err(|e| e.to_string())?;
                    let doubled: Vec<u8> = data.iter().map(|b| b * 2).collect();
                    ctx.node
                        .fs()
                        .write(ctx.sandbox_path("out.mat"), Bytes::from(doubled))
                        .await;
                    ctx.compute(secs(0.5)).await;
                    Ok(Bytes::from_static(b"ok"))
                })
            })
            .with_inputs(vec!["in.mat".into()])
            .with_outputs(vec!["out.mat".into()]);
            let id = schedd.submit(spec.clone());
            startd.execute(id, spec, schedd.clone()).await;
            let r = schedd.wait(id).await.unwrap();
            assert!(r.success);
            // Output landed on the submit node's shared fs.
            let out = cluster.shared_fs().read("out.mat").await.unwrap();
            assert_eq!(out[0], 14);
            // Sandbox cleaned.
            assert_eq!(startd.node().fs().file_count(), 0);
        });
    }

    #[test]
    fn missing_input_fails_job() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, startd, schedd) = rig();
            let spec = JobSpec::new(|_ctx| Box::pin(async { Ok(Bytes::new()) }))
                .with_inputs(vec!["ghost.mat".into()]);
            let id = schedd.submit(spec.clone());
            startd.execute(id, spec, schedd.clone()).await;
            let r = schedd.wait(id).await.unwrap();
            assert!(!r.success);
            assert!(String::from_utf8_lossy(&r.output).contains("missing input"));
        });
    }

    #[test]
    fn missing_output_fails_job() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, startd, schedd) = rig();
            let spec = JobSpec::new(|_ctx| Box::pin(async { Ok(Bytes::new()) }))
                .with_outputs(vec!["never-written.mat".into()]);
            let id = schedd.submit(spec.clone());
            startd.execute(id, spec, schedd.clone()).await;
            let r = schedd.wait(id).await.unwrap();
            assert!(!r.success);
            assert!(String::from_utf8_lossy(&r.output).contains("missing output"));
        });
    }

    #[test]
    fn slots_serialize_excess_jobs() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, startd, schedd) = rig(); // 8 slots
            let mk = || {
                JobSpec::new(|ctx: JobContext| {
                    Box::pin(async move {
                        ctx.compute(secs(1.0)).await;
                        Ok(Bytes::new())
                    })
                })
            };
            let t0 = now();
            let mut ids = Vec::new();
            for _ in 0..9 {
                let spec = mk();
                let id = schedd.submit(spec.clone());
                let startd = startd.clone();
                let schedd = schedd.clone();
                swf_simcore::spawn(async move { startd.execute(id, spec, schedd).await });
                ids.push(id);
            }
            for id in ids {
                schedd.wait(id).await.unwrap();
            }
            let elapsed = (now() - t0).as_secs_f64();
            // 9 jobs on 8 slots: two waves ≈ 2 × (0.8 start + 1.0 compute).
            assert!((3.0..4.2).contains(&elapsed), "elapsed {elapsed}");
        });
    }

    #[test]
    fn job_program_failure_reports_error_output() {
        let sim = Sim::new();
        sim.block_on(async {
            let (_cluster, startd, schedd) = rig();
            let spec = JobSpec::new(|_ctx| Box::pin(async { Err("segfault in task".to_string()) }));
            let id = schedd.submit(spec.clone());
            startd.execute(id, spec, schedd.clone()).await;
            let r = schedd.wait(id).await.unwrap();
            assert!(!r.success);
            assert!(String::from_utf8_lossy(&r.output).contains("segfault"));
        });
    }
}
