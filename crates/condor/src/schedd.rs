//! The schedd: job queue, status tracking, completion waiting.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use swf_simcore::sync::Watch;
use swf_simcore::SimTime;

use crate::error::CondorError;
use crate::job::{JobId, JobResult, JobSpec, JobStatus};

struct JobRecord {
    spec: JobSpec,
    status: JobStatus,
    submitted: SimTime,
    /// Claim epoch: bumped whenever the schedd reclaims the job from a
    /// lost node. Status reports from a superseded claim carry a stale
    /// epoch and are discarded, so a crashed node's late completion can
    /// never shadow the re-matched attempt.
    epoch: u64,
}

struct State {
    /// Every job the schedd ever held, indexed by id: ids are issued densely
    /// from 1 and never dropped, so `JobId(n)` lives at `n - 1`.
    jobs: Vec<JobRecord>,
    /// Ids of the jobs whose status is `Idle`, so a negotiation cycle costs
    /// the idle count and not every job the schedd ever held. Every write
    /// of a `JobRecord::status` keeps it in step.
    idle: BTreeSet<JobId>,
    completed_total: u64,
}

/// Where `id` lives in `State::jobs`; `None` for `JobId(0)`, which is never
/// issued.
fn slot(id: JobId) -> Option<usize> {
    usize::try_from(id.0.checked_sub(1)?).ok()
}

impl State {
    fn job(&self, id: JobId) -> Result<&JobRecord, CondorError> {
        slot(id)
            .and_then(|n| self.jobs.get(n))
            .ok_or(CondorError::NoSuchJob(id))
    }

    /// Write a job's status (with the idle index and the completed count),
    /// unless the job is unknown or `epoch` is given and is not the job's
    /// current claim epoch. Returns whether the write happened.
    fn set_status(&mut self, id: JobId, epoch: Option<u64>, status: JobStatus) -> bool {
        let Some(rec) = slot(id).and_then(|n| self.jobs.get_mut(n)) else {
            return false;
        };
        if epoch.is_some_and(|e| e != rec.epoch) {
            return false;
        }
        if matches!(status, JobStatus::Completed(_))
            && !matches!(rec.status, JobStatus::Completed(_))
        {
            self.completed_total += 1;
        }
        match (rec.status == JobStatus::Idle, status == JobStatus::Idle) {
            (true, false) => {
                self.idle.remove(&id);
            }
            (false, true) => {
                self.idle.insert(id);
            }
            _ => {}
        }
        rec.status = status;
        true
    }
}

/// The job queue daemon.
#[derive(Clone)]
pub struct Schedd {
    state: Rc<RefCell<State>>,
    /// Bumped by every status change; [`Schedd::wait`] waits on it.
    watch: Rc<Watch>,
}

impl Default for Schedd {
    fn default() -> Self {
        Self::new()
    }
}

impl Schedd {
    /// Empty queue.
    pub fn new() -> Self {
        Schedd {
            state: Rc::new(RefCell::new(State {
                jobs: Vec::new(),
                idle: BTreeSet::new(),
                completed_total: 0,
            })),
            watch: Rc::new(Watch::new()),
        }
    }

    /// Submit a job; returns its id.
    pub fn submit(&self, spec: JobSpec) -> JobId {
        // Some unit tests submit outside a simulation; clamp to t=0 there.
        let submitted = if swf_simcore::try_current().is_some() {
            swf_simcore::now()
        } else {
            SimTime::ZERO
        };
        let mut s = self.state.borrow_mut();
        s.jobs.push(JobRecord {
            spec,
            status: JobStatus::Idle,
            submitted,
            epoch: 0,
        });
        let id = JobId(s.jobs.len() as u64);
        s.idle.insert(id);
        drop(s);
        self.watch.bump();
        id
    }

    /// When a job entered the queue (for queue-time spans).
    pub fn submitted_at(&self, id: JobId) -> Result<SimTime, CondorError> {
        self.state.borrow().job(id).map(|r| r.submitted)
    }

    /// Current status of a job.
    pub fn status(&self, id: JobId) -> Result<JobStatus, CondorError> {
        self.state.borrow().job(id).map(|r| r.status.clone())
    }

    /// The spec of a job (for the negotiator/startd).
    pub fn spec(&self, id: JobId) -> Result<JobSpec, CondorError> {
        self.state.borrow().job(id).map(|r| r.spec.clone())
    }

    /// Cores a job requests, read in place (a negotiation cycle sizes every
    /// idle job but copies the spec only of the ones it matches).
    pub fn request_cpus(&self, id: JobId) -> Result<u32, CondorError> {
        self.state.borrow().job(id).map(|r| r.spec.request_cpus)
    }

    /// Idle jobs in negotiation order: submit order, which is id order — a
    /// requeued job keeps its id and so its place.
    pub fn idle_jobs(&self) -> Vec<JobId> {
        self.state.borrow().idle.iter().copied().collect()
    }

    /// Update a job's status.
    pub fn set_status(&self, id: JobId, status: JobStatus) {
        self.state.borrow_mut().set_status(id, None, status);
        self.watch.bump();
    }

    /// The job's current claim epoch (see [`Schedd::set_status_epoch`]).
    pub fn epoch(&self, id: JobId) -> Result<u64, CondorError> {
        self.state.borrow().job(id).map(|r| r.epoch)
    }

    /// Update a job's status only when `epoch` is still the job's current
    /// claim epoch. Returns whether the write was accepted. Startds report
    /// through this path so a claim superseded by [`Schedd::requeue_running_on`]
    /// cannot resurrect a stale Running/Completed state.
    pub fn set_status_epoch(&self, id: JobId, epoch: u64, status: JobStatus) -> bool {
        let accepted = self.state.borrow_mut().set_status(id, Some(epoch), status);
        if accepted {
            self.watch.bump();
        }
        accepted
    }

    /// Reclaim every job currently Running on `node`: back to Idle with a
    /// bumped claim epoch, so the negotiator re-matches them elsewhere and
    /// any late report from the lost node is discarded. Returns the
    /// requeued job ids (ascending).
    pub fn requeue_running_on(&self, node: swf_cluster::NodeId) -> Vec<JobId> {
        let mut requeued = Vec::new();
        {
            let mut s = self.state.borrow_mut();
            let State { jobs, idle, .. } = &mut *s;
            for (id, rec) in (1..).map(JobId).zip(jobs.iter_mut()) {
                if rec.status == JobStatus::Running(node) {
                    rec.status = JobStatus::Idle;
                    rec.epoch += 1;
                    idle.insert(id);
                    requeued.push(id);
                }
            }
        }
        if !requeued.is_empty() {
            let obs = swf_obs::current();
            obs.counter_add("condor.jobs_requeued", requeued.len() as u64);
            self.watch.bump();
        }
        requeued
    }

    /// Remove a job from the queue (only Idle jobs can be removed cleanly).
    pub fn remove(&self, id: JobId) -> Result<(), CondorError> {
        let mut s = self.state.borrow_mut();
        if s.job(id)?.status != JobStatus::Idle {
            return Err(CondorError::NotIdle(id));
        }
        s.set_status(id, None, JobStatus::Removed);
        drop(s);
        self.watch.bump();
        Ok(())
    }

    /// Await a job's completion.
    pub async fn wait(&self, id: JobId) -> Result<JobResult, CondorError> {
        loop {
            let seen = self.watch.version();
            match self.status(id)? {
                JobStatus::Completed(r) => return Ok(r),
                JobStatus::Removed => return Err(CondorError::JobRemoved(id)),
                _ => {}
            }
            self.watch.changed(seen).await;
        }
    }

    /// Jobs in the queue, any state.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().jobs.len()
    }

    /// Jobs completed over the schedd's lifetime.
    pub fn completed_total(&self) -> u64 {
        self.state.borrow().completed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use swf_cluster::NodeId;
    use swf_simcore::{secs, sleep, spawn, Sim, SimTime};

    fn noop_spec() -> JobSpec {
        JobSpec::new(|_ctx| Box::pin(async { Ok(Bytes::new()) }))
    }

    #[test]
    fn submit_and_status() {
        let s = Schedd::new();
        let id = s.submit(noop_spec());
        assert_eq!(s.status(id).unwrap(), JobStatus::Idle);
        assert_eq!(s.queue_len(), 1);
        assert!(s.status(JobId(99)).is_err());
    }

    #[test]
    fn ids_never_issued_are_no_such_job() {
        let s = Schedd::new();
        let id = s.submit(noop_spec());
        assert_eq!(id, JobId(1));
        assert_eq!(s.request_cpus(id).unwrap(), 1);
        // Ids start at 1: `JobId(0)` is never issued, nor is anything past
        // the last submission.
        fn no_such<T>(r: Result<T, CondorError>, id: JobId) -> bool {
            matches!(r, Err(CondorError::NoSuchJob(e)) if e == id)
        }
        for ghost in [JobId(0), JobId(2), JobId(u64::MAX)] {
            assert!(no_such(s.status(ghost), ghost));
            assert!(no_such(s.spec(ghost), ghost));
            assert!(no_such(s.epoch(ghost), ghost));
            assert!(no_such(s.submitted_at(ghost), ghost));
            assert!(no_such(s.request_cpus(ghost), ghost));
            assert!(no_such(s.remove(ghost), ghost));
            assert!(!s.set_status_epoch(ghost, 0, JobStatus::Idle));
        }
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.idle_jobs(), vec![id]);
    }

    #[test]
    fn idle_order_is_submit_order() {
        let s = Schedd::new();
        let a = s.submit(noop_spec());
        let b = s.submit(noop_spec());
        let c = s.submit(noop_spec());
        assert_eq!(s.idle_jobs(), vec![a, b, c]);
        s.set_status(a, JobStatus::Running(NodeId(1)));
        assert_eq!(s.idle_jobs(), vec![b, c]);
        // A job reclaimed from a lost node re-enters at its original
        // position, ahead of everything submitted after it.
        let d = s.submit(noop_spec());
        s.requeue_running_on(NodeId(1));
        assert_eq!(s.idle_jobs(), vec![a, b, c, d]);
    }

    #[test]
    fn wait_resolves_on_completion() {
        let sim = Sim::new();
        sim.block_on(async {
            let s = Schedd::new();
            let id = s.submit(noop_spec());
            let s2 = s.clone();
            spawn(async move {
                sleep(secs(3.0)).await;
                s2.set_status(
                    id,
                    JobStatus::Completed(JobResult {
                        success: true,
                        output: Bytes::from_static(b"done"),
                        node: NodeId(2),
                        started: SimTime::ZERO,
                        finished: swf_simcore::now(),
                    }),
                );
            });
            let r = s.wait(id).await.unwrap();
            assert!(r.success);
            assert_eq!(&r.output[..], b"done");
            assert_eq!(s.completed_total(), 1);
        });
    }

    #[test]
    fn remove_only_idle() {
        let sim = Sim::new();
        sim.block_on(async {
            let s = Schedd::new();
            let id = s.submit(noop_spec());
            s.set_status(id, JobStatus::Running(NodeId(1)));
            assert!(matches!(s.remove(id), Err(CondorError::NotIdle(_))));
            let id2 = s.submit(noop_spec());
            s.remove(id2).unwrap();
            assert!(matches!(s.wait(id2).await, Err(CondorError::JobRemoved(_))));
        });
    }

    #[test]
    fn requeue_bumps_epoch_and_discards_stale_reports() {
        let sim = Sim::new();
        sim.block_on(async {
            let s = Schedd::new();
            let id = s.submit(noop_spec());
            assert_eq!(s.epoch(id).unwrap(), 0);
            s.set_status(id, JobStatus::Running(NodeId(1)));
            let requeued = s.requeue_running_on(NodeId(1));
            assert_eq!(requeued, vec![id]);
            assert_eq!(s.status(id).unwrap(), JobStatus::Idle);
            assert_eq!(s.epoch(id).unwrap(), 1);
            // The lost node's late completion (epoch 0) is discarded.
            let stale = s.set_status_epoch(
                id,
                0,
                JobStatus::Completed(JobResult {
                    success: true,
                    output: Bytes::from_static(b"ghost"),
                    node: NodeId(1),
                    started: SimTime::ZERO,
                    finished: SimTime::ZERO,
                }),
            );
            assert!(!stale);
            assert_eq!(s.status(id).unwrap(), JobStatus::Idle);
            assert_eq!(s.completed_total(), 0);
            // The re-matched claim (epoch 1) lands.
            let fresh = s.set_status_epoch(
                id,
                1,
                JobStatus::Completed(JobResult {
                    success: true,
                    output: Bytes::from_static(b"real"),
                    node: NodeId(2),
                    started: SimTime::ZERO,
                    finished: SimTime::ZERO,
                }),
            );
            assert!(fresh);
            let r = s.wait(id).await.unwrap();
            assert_eq!(&r.output[..], b"real");
            assert_eq!(s.completed_total(), 1);
        });
    }

    #[test]
    fn requeue_ignores_jobs_on_other_nodes() {
        let s = Schedd::new();
        let a = s.submit(noop_spec());
        let b = s.submit(noop_spec());
        s.set_status(a, JobStatus::Running(NodeId(1)));
        s.set_status(b, JobStatus::Running(NodeId(2)));
        assert_eq!(s.requeue_running_on(NodeId(3)), vec![]);
        assert_eq!(s.requeue_running_on(NodeId(2)), vec![b]);
        assert_eq!(s.status(a).unwrap(), JobStatus::Running(NodeId(1)));
        assert_eq!(s.epoch(a).unwrap(), 0);
        assert_eq!(s.epoch(b).unwrap(), 1);
    }

    proptest::proptest! {
        /// The idle index against the full scan it replaced: after any
        /// sequence of status writes — stale epochs, unknown ids, repeated
        /// and terminal states included — they name the same jobs in the
        /// same order.
        #[test]
        fn idle_index_equals_the_full_scan(
            ops in proptest::collection::vec((0u8..8, 1u64..12, 0u64..3, 0usize..3), 0..120),
        ) {
            let s = Schedd::new();
            let done = |node| {
                JobStatus::Completed(JobResult {
                    success: true,
                    output: Bytes::new(),
                    node,
                    started: SimTime::ZERO,
                    finished: SimTime::ZERO,
                })
            };
            for (op, id, epoch, node) in ops {
                let (id, node) = (JobId(id), NodeId(node));
                match op {
                    0 | 1 => drop(s.submit(noop_spec())),
                    2 => s.set_status(id, JobStatus::Running(node)),
                    3 => s.set_status(id, JobStatus::Idle),
                    4 => s.set_status(id, done(node)),
                    5 => drop(s.set_status_epoch(id, epoch, JobStatus::Running(node))),
                    6 => drop(s.requeue_running_on(node)),
                    _ => drop(s.remove(id)),
                }
                let scan: Vec<JobId> = (1..=s.queue_len() as u64)
                    .map(JobId)
                    .filter(|id| s.status(*id).unwrap() == JobStatus::Idle)
                    .collect();
                proptest::prop_assert_eq!(s.idle_jobs(), scan);
            }
        }
    }

    #[test]
    fn wait_wakes_on_every_change_and_returns_on_its_own() {
        let sim = Sim::new();
        sim.block_on(async {
            let s = Schedd::new();
            let id = s.submit(noop_spec());
            let waiter = {
                let s = s.clone();
                spawn(async move { (s.wait(id).await, swf_simcore::now()) })
            };
            // A change to another job wakes the waiter, which looks at its
            // job and waits again.
            sleep(secs(1.0)).await;
            s.submit(noop_spec());
            sleep(secs(1.0)).await;
            s.remove(id).unwrap();
            let (result, at) = waiter.await;
            assert!(matches!(result, Err(CondorError::JobRemoved(j)) if j == id));
            assert_eq!(at, SimTime::ZERO + secs(2.0));
        });
    }
}
