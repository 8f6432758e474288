//! The cost ledger: per-price-class node-second accounting on the
//! virtual clock.
//!
//! A pooled node bills whenever it is *active* — from [`CostLedger::open_all`]
//! at boot until something deactivates it: a scale-in by the
//! [`PoolAutoscaler`](crate::PoolAutoscaler) or a spot revocation's
//! hard-kill instant (derived from the fault plan by
//! [`CostLedger::track_plan`]). Closed
//! intervals are observed as `cost.node_s.on_demand` / `cost.node_s.spot`
//! the moment they close, so the metrics snapshot carries the billed
//! history; the final [`CostReport`] additionally clips still-open
//! intervals to the run's settle instant.

use std::cell::RefCell;
use std::rc::Rc;

use swf_chaos::{FaultKind, FaultPlan};
use swf_simcore::{now, sleep, SimDuration, SimTime};

use crate::pool::{PoolSet, PriceClass};

/// Per-price-class prices, in dollars per node-hour (the unit cloud
/// price sheets quote).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Reserved capacity price.
    pub on_demand_per_node_h: f64,
    /// Preemptible capacity price.
    pub spot_per_node_h: f64,
}

impl Default for CostModel {
    /// A 70% spot discount, the ballpark across providers.
    fn default() -> Self {
        CostModel {
            on_demand_per_node_h: 0.40,
            spot_per_node_h: 0.12,
        }
    }
}

impl CostModel {
    /// Dollars per node-second at a class.
    pub fn rate_per_s(&self, class: PriceClass) -> f64 {
        match class {
            PriceClass::OnDemand => self.on_demand_per_node_h / 3600.0,
            PriceClass::Spot => self.spot_per_node_h / 3600.0,
        }
    }
}

struct LedgerState {
    /// Node id → instant its current active interval opened.
    open: std::collections::BTreeMap<usize, SimTime>,
    /// Closed-interval node-seconds billed so far, per class.
    on_demand_s: f64,
    spot_s: f64,
}

/// The ledger. Cheap to clone; all state is shared.
#[derive(Clone)]
pub struct CostLedger {
    pools: PoolSet,
    model: CostModel,
    state: Rc<RefCell<LedgerState>>,
}

impl CostLedger {
    /// A ledger over `pools` at `model` prices. Nothing is billed until
    /// [`open_all`](Self::open_all) (or a `set_active(_, true)`) runs
    /// inside the simulation.
    pub fn new(pools: PoolSet, model: CostModel) -> CostLedger {
        CostLedger {
            pools,
            model,
            state: Rc::new(RefCell::new(LedgerState {
                open: std::collections::BTreeMap::new(),
                on_demand_s: 0.0,
                spot_s: 0.0,
            })),
        }
    }

    /// Open an active interval for every pooled node at the current
    /// virtual instant (call at boot).
    pub fn open_all(&self) {
        let t = now();
        let mut s = self.state.borrow_mut();
        for n in self.pools.nodes() {
            s.open.entry(n).or_insert(t);
        }
    }

    /// Transition a node's billing state. Opening an open node or closing
    /// a closed one is a no-op, so the autoscaler and the plan tracker
    /// can overlap without double-billing. Closing observes the
    /// interval under the class's `cost.node_s.*` metric.
    pub fn set_active(&self, node: usize, active: bool) {
        let Some(class) = self.pools.class_of(node) else {
            return;
        };
        let mut s = self.state.borrow_mut();
        if active {
            s.open.entry(node).or_insert_with(now);
            return;
        }
        let Some(opened) = s.open.remove(&node) else {
            return;
        };
        let billed = (now() - opened).as_secs_f64();
        let obs = swf_obs::current();
        match class {
            PriceClass::OnDemand => {
                s.on_demand_s += billed;
                obs.observe("cost.node_s.on_demand", billed);
            }
            PriceClass::Spot => {
                s.spot_s += billed;
                obs.observe("cost.node_s.spot", billed);
            }
        }
    }

    /// Drive the ledger from a fault plan: a spot node stops billing at
    /// its revocation's hard-kill instant (`at + grace`) and resumes at
    /// its recovery. A revocation rescinded by a recovery inside its
    /// grace window bills straight through. Spawn the returned future
    /// inside the simulation alongside the injector.
    pub async fn track_plan(self, plan: FaultPlan) {
        let spot: std::collections::BTreeSet<usize> = self.pools.spot_nodes().into_iter().collect();
        // (action instant, node, active): off at hard-kill, on at recovery.
        let mut actions: Vec<(SimDuration, usize, bool)> = Vec::new();
        for (i, ev) in plan.events.iter().enumerate() {
            match ev.kind {
                FaultKind::SpotRevoke { node, grace } if spot.contains(&node) => {
                    let kill_at = ev.at + grace;
                    let rescinded = plan.events[i + 1..].iter().any(|later| {
                        later.at < kill_at
                            && matches!(later.kind, FaultKind::NodeRecover { node: n } if n == node)
                    });
                    if rescinded {
                        swf_obs::current().counter_add("elastic.spot_rescinds", 1);
                    } else {
                        actions.push((kill_at, node, false));
                    }
                }
                FaultKind::NodeRecover { node } if spot.contains(&node) => {
                    actions.push((ev.at, node, true));
                }
                _ => {}
            }
        }
        actions.sort();
        let start = now();
        for (at, node, active) in actions {
            let due = start + at;
            let t = now();
            if due > t {
                sleep(due - t).await;
            }
            if !active {
                swf_obs::current().counter_add("elastic.spot_revocations", 1);
            }
            self.set_active(node, active);
        }
    }

    /// The report as of `end`: closed intervals plus still-open intervals
    /// clipped to `end`. Pure arithmetic — callable after the simulation
    /// finishes.
    pub fn report_at(&self, end: SimTime) -> CostReport {
        let s = self.state.borrow();
        let mut on_demand_s = s.on_demand_s;
        let mut spot_s = s.spot_s;
        for (node, opened) in &s.open {
            let tail = if end > *opened {
                (end - *opened).as_secs_f64()
            } else {
                0.0
            };
            match self.pools.class_of(*node) {
                Some(PriceClass::OnDemand) => on_demand_s += tail,
                Some(PriceClass::Spot) => spot_s += tail,
                None => {}
            }
        }
        let on_demand_dollars = on_demand_s * self.model.rate_per_s(PriceClass::OnDemand);
        let spot_dollars = spot_s * self.model.rate_per_s(PriceClass::Spot);
        CostReport {
            on_demand_node_s: on_demand_s,
            spot_node_s: spot_s,
            on_demand_dollars,
            spot_dollars,
        }
    }
}

/// What a run cost, per price class.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostReport {
    /// Node-seconds billed at the on-demand class.
    pub on_demand_node_s: f64,
    /// Node-seconds billed at the spot class.
    pub spot_node_s: f64,
    /// Dollars at the on-demand class.
    pub on_demand_dollars: f64,
    /// Dollars at the spot class.
    pub spot_dollars: f64,
}

impl CostReport {
    /// Total dollars.
    pub fn dollars(&self) -> f64 {
        self.on_demand_dollars + self.spot_dollars
    }

    /// Useful task-seconds bought per dollar (the paper-style
    /// perf-per-dollar figure of merit). Zero when nothing was billed.
    pub fn perf_per_dollar(&self, useful_task_s: f64) -> f64 {
        let d = self.dollars();
        if d > 0.0 {
            useful_task_s / d
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{secs, spawn, Sim};

    fn pools() -> PoolSet {
        PoolSet::split(vec![1], vec![2, 3])
    }

    #[test]
    fn intervals_bill_per_class_and_transitions_are_idempotent() {
        let sim = Sim::new();
        sim.block_on(async {
            let ledger = CostLedger::new(pools(), CostModel::default());
            ledger.open_all();
            ledger.set_active(2, true); // already open: no-op
            sleep(secs(100.0)).await;
            ledger.set_active(2, false);
            ledger.set_active(2, false); // already closed: no-op
            sleep(secs(50.0)).await;
            let r = ledger.report_at(now());
            // Node 1 (on-demand) open the whole 150 s; node 3 (spot) too;
            // node 2 (spot) billed its first 100 s only.
            assert_eq!(r.on_demand_node_s.to_bits(), 150.0f64.to_bits());
            assert_eq!(r.spot_node_s.to_bits(), 250.0f64.to_bits());
            let expected: f64 = 150.0 * (0.40 / 3600.0) + 250.0 * (0.12 / 3600.0);
            assert_eq!(r.dollars().to_bits(), expected.to_bits());
            assert!(r.perf_per_dollar(100.0) > 0.0);
            // Unpooled nodes never bill.
            ledger.set_active(0, true);
            assert_eq!(
                ledger.report_at(now()).dollars().to_bits(),
                expected.to_bits()
            );
        });
    }

    #[test]
    fn track_plan_stops_billing_at_hard_kill_and_resumes_at_recovery() {
        let sim = Sim::new();
        sim.block_on(async {
            let mut plan = FaultPlan::calm();
            plan.push(
                secs(10.0),
                FaultKind::SpotRevoke {
                    node: 2,
                    grace: secs(5.0),
                },
            );
            plan.push(secs(40.0), FaultKind::NodeRecover { node: 2 });
            // A rescinded revocation on node 3: recovery inside grace.
            plan.push(
                secs(20.0),
                FaultKind::SpotRevoke {
                    node: 3,
                    grace: secs(10.0),
                },
            );
            plan.push(secs(25.0), FaultKind::NodeRecover { node: 3 });
            let ledger = CostLedger::new(pools(), CostModel::default());
            ledger.open_all();
            let h = spawn(ledger.clone().track_plan(plan));
            sleep(secs(100.0)).await;
            h.await;
            let r = ledger.report_at(now());
            // Node 2 off during [15, 40): bills 75 s; node 3 bills all 100.
            assert_eq!(r.spot_node_s.to_bits(), 175.0f64.to_bits());
            assert_eq!(r.on_demand_node_s.to_bits(), 100.0f64.to_bits());
        });
    }
}
