//! The node-pool autoscaler: one control loop over the spot workers.
//!
//! A worker is one machine with two faces — an HTCondor startd and a
//! Kubernetes node — so it is scaled as one thing. Scaled in, it is out
//! on both sides at once: startd drained (running jobs finish, nothing
//! new matches), node not ready (the scheduler skips it), ledger closed
//! (it bills nothing). Capacity is pre-provisioned; "asking the cloud
//! for a VM" is bringing such a worker back.
//!
//! Each tick the loop brings back the lowest-id scaled-in worker, one per
//! tick, when the batch queue wants more workers than are active **or** a
//! pod is waiting for a node; and it scales a worker in once it has held
//! neither a claim nor a live pod for the 20 s cooldown, counted from the
//! later of its last busy instant and its scale-out — so a worker is
//! never scaled out and in at the same instant.
//!
//! Ownership is per side: the loop un-drains only startds *it* drained
//! and readies only nodes *it* made not-ready. A side someone else
//! flipped back (chaos `CondorResume`, `NodeRecover`, a revocation's
//! expiry) is dropped from its books; a side someone else took down
//! (`fail_node`, a revocation notice) was never in them, so a faulted
//! node is not healed by demand. A condor-failed worker is never brought
//! back.
//!
//! The Knative KPA (`swf_knative::autoscaler`) is deliberately not this
//! loop: it sizes a revision's replica count from windowed concurrency,
//! this one decides the membership of a node list from queue depth.

use std::collections::{BTreeMap, BTreeSet};

use swf_cluster::NodeId;
use swf_condor::{Condor, Startd};
use swf_k8s::{ApiServer, PodPhase};
use swf_simcore::{now, sleep, SimDuration, SimTime};

use crate::cost::CostLedger;

/// Reconcile interval.
const TICK: SimDuration = SimDuration::from_secs(1);
/// How long a worker must hold neither a claim nor a live pod before it
/// is scaled in.
const IDLE_COOLDOWN: SimDuration = SimDuration::from_secs(20);

/// The control loop. Everything outside `nodes` is fixed capacity it
/// never touches.
pub struct PoolAutoscaler {
    condor: Condor,
    api: ApiServer,
    nodes: Vec<NodeId>,
    ledger: CostLedger,
    /// Startds this loop drained, and may therefore un-drain.
    drained: BTreeSet<NodeId>,
    /// Nodes this loop made not-ready, and may therefore ready.
    unready: BTreeSet<NodeId>,
    /// Per worker, the later of its last busy instant and its scale-out.
    in_use: BTreeMap<NodeId, SimTime>,
}

impl PoolAutoscaler {
    /// A loop over the workers `nodes` of `condor` and `api`, billing
    /// `ledger`. Does nothing until [`run`](Self::run) is spawned.
    pub fn new(condor: Condor, api: ApiServer, nodes: Vec<NodeId>, ledger: CostLedger) -> Self {
        PoolAutoscaler {
            condor,
            api,
            nodes,
            ledger,
            drained: BTreeSet::new(),
            unready: BTreeSet::new(),
            in_use: BTreeMap::new(),
        }
    }

    /// Scale the whole pool in, then reconcile every second, forever.
    pub async fn run(mut self) {
        for id in self.nodes.clone() {
            self.scale_in(id);
        }
        loop {
            self.tick();
            sleep(TICK).await;
        }
    }

    /// `(desired, active)`: the managed workers the queue wants —
    /// `ceil((busy_slots + idle_jobs − fixed_capacity) / slots_per_node)`,
    /// one job per slot and fixed capacity filled first, capped at the
    /// pool — and the ones matching jobs now (undrained, unfailed).
    fn demand(&self) -> (usize, usize) {
        let (mut busy_slots, mut fixed_capacity, mut slots_per_node, mut active) = (0, 0, 1, 0);
        for s in self.condor.startds().iter().filter(|s| !s.is_failed()) {
            busy_slots += s.total_slots() - s.free_slots();
            if self.nodes.contains(&s.node().id()) {
                slots_per_node = slots_per_node.max(s.total_slots());
                active += usize::from(!s.is_draining());
            } else {
                fixed_capacity += s.total_slots();
            }
        }
        let wanted_slots = busy_slots + self.condor.schedd().idle_jobs().len();
        let desired = wanted_slots
            .saturating_sub(fixed_capacity)
            .div_ceil(slots_per_node)
            .min(self.nodes.len());
        (desired, active)
    }

    /// Is a pod waiting for a node, and which nodes hold a live one: one
    /// pass over the pod store, copying nothing.
    fn pods(&self) -> (bool, BTreeSet<NodeId>) {
        self.api.pods().read(|pods| {
            let mut waiting = false;
            let mut hosting = BTreeSet::new();
            for p in pods.values() {
                hosting.extend(p.live_on());
                waiting |= p.status.node.is_none()
                    && p.status.phase == PodPhase::Pending
                    && !p.meta.deletion_requested;
            }
            (waiting, hosting)
        })
    }

    /// One reconcile pass.
    fn tick(&mut self) {
        // A side someone else flipped back is no longer ours to flip.
        let (condor, api) = (&self.condor, &self.api);
        self.drained
            .retain(|id| condor.startd(*id).is_some_and(Startd::is_draining));
        self.unready.retain(|id| !api.node_ready(*id));

        let (desired, mut active) = self.demand();
        let (pod_waiting, hosting) = self.pods();
        if desired > active || pod_waiting {
            // Lowest id first, one per tick: pressure that persists keeps
            // bringing workers back on later ticks.
            let mut ours = self.drained.union(&self.unready);
            if let Some(id) = ours.find(|id| !condor.node_is_failed(**id)).copied() {
                active += usize::from(self.drained.contains(&id));
                self.scale_out(id);
            }
        }

        let t = now();
        let mut idle = Vec::new();
        for &id in &self.nodes {
            let Some(startd) = self.condor.startd(id).filter(|s| !s.is_failed()) else {
                continue;
            };
            if startd.free_slots() < startd.total_slots() || hosting.contains(&id) {
                self.in_use.insert(id, t);
                continue;
            }
            let matching = !startd.is_draining();
            // Out on both sides already (by us or not), or still wanted
            // by the queue.
            if (!matching && !self.api.node_ready(id)) || (matching && active <= desired) {
                continue;
            }
            let since = self.in_use.get(&id).copied().unwrap_or(SimTime::ZERO);
            if t.since(since) >= IDLE_COOLDOWN {
                active -= usize::from(matching);
                idle.push(id);
            }
        }
        for id in idle {
            self.scale_in(id);
        }
    }

    /// Take a worker out of service on every side still in service, and
    /// own each side taken.
    fn scale_in(&mut self, id: NodeId) {
        if self.condor.startd(id).is_some_and(|s| !s.is_draining()) {
            self.condor.drain_node(id);
            self.drained.insert(id);
        }
        if self.api.node_ready(id) {
            self.set_ready(id, false);
            self.unready.insert(id);
        }
        self.ledger.set_active(id.0, false);
        swf_obs::current().counter_add("condor.pool.scale_downs", 1);
    }

    /// Bring a worker back on every side this loop took out.
    fn scale_out(&mut self, id: NodeId) {
        if self.drained.remove(&id) {
            self.condor.undrain_node(id);
        }
        if self.unready.remove(&id) {
            self.set_ready(id, true);
        }
        self.in_use.insert(id, now());
        self.ledger.set_active(id.0, true);
        // The batch-side prefix stays: `benchmark/` reads this name.
        swf_obs::current().counter_add("condor.pool.scale_ups", 1);
    }

    fn set_ready(&self, id: NodeId, ready: bool) {
        self.api
            .nodes()
            .update(&id.to_string(), |n| n.ready = ready);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolSet;
    use bytes::Bytes;
    use swf_condor::{JobContext, JobSpec};
    use swf_container::ResourceLimits;
    use swf_core::TestBed;
    use swf_k8s::{ObjectMeta, Pod, PodSpec};
    use swf_simcore::{secs, spawn, Sim};

    /// A booted testbed (fixed worker 1) with the loop running over
    /// `spot`, and the handles a test observes it through.
    struct Rig {
        bed: TestBed,
        ledger: CostLedger,
        obs: swf_obs::Obs,
        _installed: swf_obs::InstallGuard,
    }

    fn rig(spot: &[usize]) -> Rig {
        let obs = swf_obs::Obs::enabled();
        let installed = swf_obs::install(obs.clone());
        let bed = TestBed::boot(&swf_chaos::experiment_config(7));
        let fixed = (1..=3).filter(|n| !spot.contains(n)).collect();
        let ledger = CostLedger::new(PoolSet::split(fixed, spot.to_vec()));
        ledger.open_all();
        let nodes = spot.iter().copied().map(NodeId).collect();
        let api = bed.k8s.api().clone();
        spawn(PoolAutoscaler::new(bed.condor.clone(), api, nodes, ledger.clone()).run());
        Rig {
            bed,
            ledger,
            obs,
            _installed: installed,
        }
    }

    impl Rig {
        fn count(&self, name: &str) -> u64 {
            self.obs.metrics().counter(name).unwrap_or(0)
        }
        fn draining(&self, n: usize) -> bool {
            self.bed.condor.startd(NodeId(n)).unwrap().is_draining()
        }
        fn ready(&self, n: usize) -> bool {
            self.bed.k8s.node_is_ready(NodeId(n))
        }
        /// Out on both sides / in on both sides.
        fn scaled_in(&self, n: usize) -> bool {
            self.draining(n) && !self.ready(n)
        }
        fn scaled_out(&self, n: usize) -> bool {
            !self.draining(n) && self.ready(n)
        }
        fn spot_node_s(&self) -> f64 {
            self.ledger.report_at(now()).spot_node_s
        }
        async fn pod(&self, name: &str, cpu_millis: u32, pin: Option<usize>) {
            let limits = ResourceLimits {
                cpu_millis,
                memory: swf_cluster::mib(256),
            };
            let spec = PodSpec::new(self.bed.image.clone()).with_resources(limits);
            let mut pod = Pod::new(ObjectMeta::named(name), spec);
            pod.spec.node_name = pin.map(NodeId);
            self.bed.k8s.api().create_pod(pod).await.unwrap();
        }
        fn jobs(&self, n: usize, each: f64) -> Vec<swf_condor::JobId> {
            let job = move |ctx: JobContext| -> swf_condor::LocalBoxFuture<_> {
                Box::pin(async move {
                    ctx.compute(secs(each)).await;
                    Ok(Bytes::from_static(b"ok"))
                })
            };
            (0..n)
                .map(|_| self.bed.condor.submit(JobSpec::new(job)))
                .collect()
        }
    }

    /// ROADMAP item 1(a). At the parent the k8s-side loop un-parked node 2
    /// with its idle clock still at t = 0, so the idle pass of the same
    /// tick re-parked it and the pod never started.
    #[test]
    fn a_worker_scaled_out_past_the_cooldown_stays_while_its_pod_lives() {
        Sim::new().block_on(async {
            let rig = rig(&[2, 3]);
            sleep(secs(30.0)).await; // past IDLE_COOLDOWN
            assert!(rig.scaled_in(2) && rig.scaled_in(3), "pool boots scaled in");
            rig.pod("hog", 8_000, Some(1)).await; // saturates worker 1
            rig.pod("p", 1_000, None).await;
            rig.bed.k8s.wait_pod_ready("p", secs(120.0)).await.unwrap();
            let p = rig.bed.k8s.api().pods().get("p").unwrap();
            assert_eq!(p.status.node, Some(NodeId(2)), "lowest id comes back");
            assert_eq!(rig.count("condor.pool.scale_ups"), 1);

            sleep(IDLE_COOLDOWN * 3).await;
            assert!(rig.scaled_out(2), "a worker hosting a live pod is in use");
            assert!(rig.bed.k8s.api().pods().get("p").unwrap().is_routable());
            assert_eq!(rig.count("condor.pool.scale_ups"), 1);
            assert_eq!(rig.count("condor.pool.scale_downs"), 2, "only at boot");
        });
    }

    #[test]
    fn queue_pressure_scales_out_one_per_tick_and_the_cooldown_scales_in() {
        Sim::new().block_on(async {
            let rig = rig(&[2, 3]);
            sleep(secs(0.5)).await;
            assert!(rig.scaled_in(2) && rig.scaled_in(3));
            let boot_bill = rig.spot_node_s();

            // 30 long jobs over one 8-slot fixed worker: desired = 2.
            let ids = rig.jobs(30, 6.0);
            sleep(secs(1.0)).await; // the t = 1 tick
            assert!(rig.scaled_out(2), "lowest id first, both sides back");
            assert!(rig.scaled_in(3), "one worker per tick");
            sleep(secs(1.0)).await; // the t = 2 tick
            assert!(rig.scaled_out(3));
            assert_eq!(rig.count("condor.pool.scale_ups"), 2);
            for id in ids {
                rig.bed.condor.wait(id).await.unwrap();
            }

            // Demand gone: both go out again, on both sides, and stop billing.
            sleep(IDLE_COOLDOWN + TICK * 2).await;
            assert!(rig.scaled_in(2) && rig.scaled_in(3));
            assert_eq!(rig.count("condor.pool.scale_downs"), 4);
            let bill = rig.spot_node_s();
            assert!(bill > boot_bill + 2.0 * IDLE_COOLDOWN.as_secs_f64());
            sleep(secs(10.0)).await;
            assert_eq!(rig.spot_node_s(), bill, "the ledger closed at scale-in");
        });
    }

    #[test]
    fn a_condor_failed_worker_is_never_brought_back() {
        Sim::new().block_on(async {
            let rig = rig(&[3]);
            sleep(secs(0.5)).await;
            rig.bed.condor.fail_node(NodeId(3));
            let ids = rig.jobs(30, 1.0);
            sleep(secs(6.0)).await;
            assert_eq!(rig.count("condor.pool.scale_ups"), 0);
            assert!(rig.scaled_in(3) && rig.bed.condor.node_is_failed(NodeId(3)));
            for id in ids {
                rig.bed.condor.wait(id).await.unwrap();
            }
        });
    }

    #[test]
    fn a_node_someone_else_failed_is_not_readied_by_pending_pressure() {
        Sim::new().block_on(async {
            let rig = rig(&[3]);
            sleep(secs(0.5)).await;
            // Chaos recovers the node (the t = 1 tick drops it from the
            // books), then fails it: not-ready, but not by this loop.
            rig.bed.k8s.recover_node(NodeId(3));
            sleep(secs(1.0)).await;
            rig.bed.k8s.fail_node(NodeId(3));
            rig.pod("too-big", 64_000, None).await;
            sleep(secs(10.0)).await;
            assert!(!rig.ready(3), "demand does not heal a faulted node");
            // The side the loop did take out came back, once.
            assert!(!rig.draining(3));
            assert_eq!(rig.count("condor.pool.scale_ups"), 1);
        });
    }

    #[test]
    fn a_startd_someone_else_undrained_is_released_from_the_books() {
        Sim::new().block_on(async {
            let rig = rig(&[3]);
            sleep(secs(0.5)).await;
            // Chaos resumes the startd (the t = 1 tick releases it), then
            // drains it: draining, but not by this loop.
            rig.bed.condor.undrain_node(NodeId(3));
            sleep(secs(1.0)).await;
            rig.bed.condor.drain_node(NodeId(3));
            let ids = rig.jobs(30, 1.0);
            sleep(secs(6.0)).await;
            assert!(rig.draining(3), "not this loop's drain to lift");
            // The side the loop did take out came back, once.
            assert!(rig.ready(3));
            assert_eq!(rig.count("condor.pool.scale_ups"), 1);
            for id in ids {
                rig.bed.condor.wait(id).await.unwrap();
            }
        });
    }
}
