//! Fault plans: typed, virtual-time-ordered schedules of injections.
//!
//! A [`FaultPlan`] is the unit of reproducibility in chaos testing: it can
//! be authored explicitly, sampled from a [`ChaosProfile`] by seed, printed
//! as JSON when a seed-sweep invariant fails, and parsed back to replay the
//! exact failing run. All f64 parameters are serialized twice — once as a
//! readable number and once as their IEEE-754 bit pattern — so a plan that
//! round-trips through JSON replays bit-identically.

use serde_json::{Map, Value};
use swf_simcore::{DetRng, SimDuration};

use crate::profile::ChaosProfile;

/// One injectable fault (or its paired recovery).
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Crash a worker: HTCondor reclaims its jobs, Kubernetes loses its
    /// kubelet and pods.
    NodeCrash {
        /// The node to crash.
        node: usize,
    },
    /// Bring a crashed worker back.
    NodeRecover {
        /// The node to recover.
        node: usize,
    },
    /// `condor_drain`: running jobs finish, no new matches land there.
    CondorDrain {
        /// The node to drain.
        node: usize,
    },
    /// Resume matching on a drained worker.
    CondorResume {
        /// The node to resume.
        node: usize,
    },
    /// Delete one ready pod of a Knative service (first in name order).
    PodKill {
        /// The KService whose pod dies.
        service: String,
    },
    /// Cut the link between two nodes; transfers fail with a typed error.
    Partition {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// Heal a partitioned link.
    Heal {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// Degrade a link's quality (latency multiplied, bandwidth divided).
    DegradeLink {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
        /// Propagation-latency multiplier (≥ 1 slows the link).
        latency_factor: f64,
        /// Bandwidth divisor (≥ 1 slows the link).
        bandwidth_factor: f64,
    },
    /// Restore a degraded link to nominal quality.
    RestoreLink {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// The image registry starts refusing pulls.
    RegistryOutageStart,
    /// The registry outage ends.
    RegistryOutageEnd,
    /// For `window`, task executions flip a seeded coin and fail with a
    /// typed error with probability `fail_chance` (DAGMan retries them).
    FlakyTasks {
        /// How long the flaky window lasts.
        window: SimDuration,
        /// Per-execution failure probability in `[0, 1]`.
        fail_chance: f64,
    },
    /// For `window`, task compute is stretched by `factor` (stragglers).
    SlowTasks {
        /// How long the slow window lasts.
        window: SimDuration,
        /// Compute-time multiplier (≥ 1 slows tasks).
        factor: f64,
    },
    /// Crash the backing container of one running pod of a Knative
    /// service (first in name order), leaving the pod object alive — the
    /// fault a liveness probe detects and heals in place.
    ContainerCrash {
        /// The KService whose container crashes.
        service: String,
    },
    /// A spot (preemptible) node is reclaimed: the typed revocation
    /// notice grants `grace` before the hard kill. At notice the node is
    /// drained gracefully (condor stops matching, running jobs may
    /// finish; its pods are evicted and leave the revision router); when
    /// the grace window expires without recovery the node is crashed
    /// through the same path as [`FaultKind::NodeCrash`], so claim
    /// epochs requeue whatever was still in flight. Paired with
    /// [`FaultKind::NodeRecover`] when capacity returns.
    SpotRevoke {
        /// The spot node being reclaimed.
        node: usize,
        /// Notice-to-kill grace window.
        grace: SimDuration,
    },
}

impl FaultKind {
    /// Stable kebab-case tag used in JSON, span labels and counters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node-crash",
            FaultKind::NodeRecover { .. } => "node-recover",
            FaultKind::CondorDrain { .. } => "condor-drain",
            FaultKind::CondorResume { .. } => "condor-resume",
            FaultKind::PodKill { .. } => "pod-kill",
            FaultKind::Partition { .. } => "partition",
            FaultKind::Heal { .. } => "heal",
            FaultKind::DegradeLink { .. } => "degrade-link",
            FaultKind::RestoreLink { .. } => "restore-link",
            FaultKind::RegistryOutageStart => "registry-outage-start",
            FaultKind::RegistryOutageEnd => "registry-outage-end",
            FaultKind::FlakyTasks { .. } => "flaky-tasks",
            FaultKind::SlowTasks { .. } => "slow-tasks",
            FaultKind::ContainerCrash { .. } => "container-crash",
            FaultKind::SpotRevoke { .. } => "spot-revoke",
        }
    }
}

/// A fault scheduled at an offset from the start of injection.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// When to inject, relative to `Injector::run` starting.
    pub at: SimDuration,
    /// What to inject.
    pub kind: FaultKind,
}

/// A reproducible schedule of fault events, ordered by virtual time.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// The seed the plan was sampled from (0 for hand-authored plans);
    /// carried for provenance in printed plans.
    pub seed: u64,
    /// The events, sorted by `at` (ties keep insertion order).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty (calm) plan.
    pub fn calm() -> FaultPlan {
        FaultPlan::default()
    }

    /// Append an event, keeping the plan sorted by time.
    pub fn push(&mut self, at: SimDuration, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.normalize();
    }

    /// Stable-sort events by injection time.
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled (a calm plan).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Sample a plan from a profile. Every fault class draws from its own
    /// named [`DetRng`] stream, so enabling one class never perturbs the
    /// schedule of another. Disruptions of the same class never overlap:
    /// the next window starts after the previous one ends. `submit` is the
    /// submit node (partitions and degradations cut submit↔worker links,
    /// the paths jobs and invocations actually cross), `workers` the
    /// crashable nodes, `services` the pod-kill targets.
    pub fn sample(
        profile: &ChaosProfile,
        seed: u64,
        horizon: SimDuration,
        submit: usize,
        workers: &[usize],
        services: &[String],
    ) -> FaultPlan {
        let h = horizon.as_secs_f64();
        let mut plan = FaultPlan {
            seed,
            events: Vec::new(),
        };

        if !workers.is_empty() {
            let mut rng = DetRng::new(seed, "chaos-node-crash");
            for (t, w) in windows(
                &mut rng,
                profile.node_crash_interval,
                profile.node_outage,
                h,
            ) {
                let node = workers[rng.index(workers.len())];
                push_pair(
                    &mut plan,
                    t,
                    w,
                    FaultKind::NodeCrash { node },
                    FaultKind::NodeRecover { node },
                );
            }

            let mut rng = DetRng::new(seed, "chaos-drain");
            for (t, w) in windows(&mut rng, profile.drain_interval, profile.drain_window, h) {
                let node = workers[rng.index(workers.len())];
                push_pair(
                    &mut plan,
                    t,
                    w,
                    FaultKind::CondorDrain { node },
                    FaultKind::CondorResume { node },
                );
            }

            let mut rng = DetRng::new(seed, "chaos-partition");
            for (t, w) in windows(
                &mut rng,
                profile.partition_interval,
                profile.partition_window,
                h,
            ) {
                let b = workers[rng.index(workers.len())];
                push_pair(
                    &mut plan,
                    t,
                    w,
                    FaultKind::Partition { a: submit, b },
                    FaultKind::Heal { a: submit, b },
                );
            }

            let mut rng = DetRng::new(seed, "chaos-degrade");
            for (t, w) in windows(
                &mut rng,
                profile.degrade_interval,
                profile.degrade_window,
                h,
            ) {
                let b = workers[rng.index(workers.len())];
                push_pair(
                    &mut plan,
                    t,
                    w,
                    FaultKind::DegradeLink {
                        a: submit,
                        b,
                        latency_factor: profile.degrade_latency_factor,
                        bandwidth_factor: profile.degrade_bandwidth_factor,
                    },
                    FaultKind::RestoreLink { a: submit, b },
                );
            }

            sample_spot_class(&mut plan, profile, seed, h, workers);
        }

        if !services.is_empty() {
            let mut rng = DetRng::new(seed, "chaos-pod-kill");
            for (t, _) in windows(&mut rng, profile.pod_kill_interval, 1.0, h) {
                let service = services[rng.index(services.len())].clone();
                plan.events.push(FaultEvent {
                    at: SimDuration::from_secs_f64(t),
                    kind: FaultKind::PodKill { service },
                });
            }

            let mut rng = DetRng::new(seed, "chaos-container-crash");
            for (t, _) in windows(&mut rng, profile.container_crash_interval, 1.0, h) {
                let service = services[rng.index(services.len())].clone();
                plan.events.push(FaultEvent {
                    at: SimDuration::from_secs_f64(t),
                    kind: FaultKind::ContainerCrash { service },
                });
            }
        }

        let mut rng = DetRng::new(seed, "chaos-registry");
        for (t, w) in windows(
            &mut rng,
            profile.registry_outage_interval,
            profile.registry_outage_window,
            h,
        ) {
            push_pair(
                &mut plan,
                t,
                w,
                FaultKind::RegistryOutageStart,
                FaultKind::RegistryOutageEnd,
            );
        }

        let mut rng = DetRng::new(seed, "chaos-flaky");
        for (t, w) in windows(&mut rng, profile.flaky_interval, profile.flaky_window, h) {
            plan.events.push(FaultEvent {
                at: SimDuration::from_secs_f64(t),
                kind: FaultKind::FlakyTasks {
                    window: SimDuration::from_secs_f64(w),
                    fail_chance: profile.flaky_fail_chance,
                },
            });
        }

        let mut rng = DetRng::new(seed, "chaos-slow");
        for (t, w) in windows(&mut rng, profile.slow_interval, profile.slow_window, h) {
            plan.events.push(FaultEvent {
                at: SimDuration::from_secs_f64(t),
                kind: FaultKind::SlowTasks {
                    window: SimDuration::from_secs_f64(w),
                    factor: profile.slow_factor,
                },
            });
        }

        plan.normalize();
        plan
    }

    /// Sample only the spot-revocation class over an explicit pool of
    /// preemptible nodes. Draws from the same `"chaos-spot"` stream as
    /// [`FaultPlan::sample`], so an elastic harness that samples its
    /// non-spot classes over all workers and its revocations over the
    /// spot pool gets the same per-class independence guarantee. Merge
    /// the result into a base plan with [`FaultPlan::merge`].
    pub fn sample_spots(
        profile: &ChaosProfile,
        seed: u64,
        horizon: SimDuration,
        spot_nodes: &[usize],
    ) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            events: Vec::new(),
        };
        if !spot_nodes.is_empty() {
            sample_spot_class(&mut plan, profile, seed, horizon.as_secs_f64(), spot_nodes);
        }
        plan.normalize();
        plan
    }

    /// Fold another plan's events into this one, keeping time order.
    /// The receiver's seed is retained for provenance.
    pub fn merge(&mut self, other: FaultPlan) {
        self.events.extend(other.events);
        self.normalize();
    }

    /// Serialize to a JSON tree. Durations are carried as exact nanosecond
    /// integers and every f64 parameter also carries its bit pattern, so
    /// `from_json(to_json(p)) == p` bit-for-bit.
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("seed", Value::from(self.seed));
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                let mut m = Map::new();
                m.insert("at_ns", Value::from(e.at.as_nanos()));
                m.insert("kind", Value::from(e.kind.label()));
                match &e.kind {
                    FaultKind::NodeCrash { node }
                    | FaultKind::NodeRecover { node }
                    | FaultKind::CondorDrain { node }
                    | FaultKind::CondorResume { node } => {
                        m.insert("node", Value::from(*node));
                    }
                    FaultKind::PodKill { service } => {
                        m.insert("service", Value::from(service.clone()));
                    }
                    FaultKind::Partition { a, b }
                    | FaultKind::Heal { a, b }
                    | FaultKind::RestoreLink { a, b } => {
                        m.insert("a", Value::from(*a));
                        m.insert("b", Value::from(*b));
                    }
                    FaultKind::DegradeLink {
                        a,
                        b,
                        latency_factor,
                        bandwidth_factor,
                    } => {
                        m.insert("a", Value::from(*a));
                        m.insert("b", Value::from(*b));
                        put_f64(&mut m, "latency_factor", *latency_factor);
                        put_f64(&mut m, "bandwidth_factor", *bandwidth_factor);
                    }
                    FaultKind::RegistryOutageStart | FaultKind::RegistryOutageEnd => {}
                    FaultKind::FlakyTasks {
                        window,
                        fail_chance,
                    } => {
                        m.insert("window_ns", Value::from(window.as_nanos()));
                        put_f64(&mut m, "fail_chance", *fail_chance);
                    }
                    FaultKind::SlowTasks { window, factor } => {
                        m.insert("window_ns", Value::from(window.as_nanos()));
                        put_f64(&mut m, "factor", *factor);
                    }
                    FaultKind::ContainerCrash { service } => {
                        m.insert("service", Value::from(service.clone()));
                    }
                    FaultKind::SpotRevoke { node, grace } => {
                        m.insert("node", Value::from(*node));
                        m.insert("grace_ns", Value::from(grace.as_nanos()));
                    }
                }
                Value::Object(m)
            })
            .collect();
        root.insert("events", Value::Array(events));
        Value::Object(root)
    }

    /// Parse a plan back from [`FaultPlan::to_json`] output. A field that
    /// is missing or of the wrong type is an error.
    pub fn from_json(v: &Value) -> Result<FaultPlan, String> {
        let seed = get_u64(v, "seed")?;
        let events = v
            .get("events")
            .and_then(|e| e.as_array())
            .ok_or_else(|| "fault plan: missing events array".to_string())?;
        let mut plan = FaultPlan {
            seed,
            events: Vec::with_capacity(events.len()),
        };
        for ev in events {
            let at = SimDuration::from_nanos(get_u64(ev, "at_ns")?);
            let kind = ev
                .get("kind")
                .and_then(|k| k.as_str())
                .ok_or_else(|| "fault event: missing kind".to_string())?;
            let kind = match kind {
                "node-crash" => FaultKind::NodeCrash {
                    node: get_usize(ev, "node")?,
                },
                "node-recover" => FaultKind::NodeRecover {
                    node: get_usize(ev, "node")?,
                },
                "condor-drain" => FaultKind::CondorDrain {
                    node: get_usize(ev, "node")?,
                },
                "condor-resume" => FaultKind::CondorResume {
                    node: get_usize(ev, "node")?,
                },
                "pod-kill" => FaultKind::PodKill {
                    service: ev
                        .get("service")
                        .and_then(|s| s.as_str())
                        .ok_or_else(|| "pod-kill: missing service".to_string())?
                        .to_string(),
                },
                "partition" => FaultKind::Partition {
                    a: get_usize(ev, "a")?,
                    b: get_usize(ev, "b")?,
                },
                "heal" => FaultKind::Heal {
                    a: get_usize(ev, "a")?,
                    b: get_usize(ev, "b")?,
                },
                "degrade-link" => FaultKind::DegradeLink {
                    a: get_usize(ev, "a")?,
                    b: get_usize(ev, "b")?,
                    latency_factor: get_f64(ev, "latency_factor")?,
                    bandwidth_factor: get_f64(ev, "bandwidth_factor")?,
                },
                "restore-link" => FaultKind::RestoreLink {
                    a: get_usize(ev, "a")?,
                    b: get_usize(ev, "b")?,
                },
                "registry-outage-start" => FaultKind::RegistryOutageStart,
                "registry-outage-end" => FaultKind::RegistryOutageEnd,
                "flaky-tasks" => FaultKind::FlakyTasks {
                    window: SimDuration::from_nanos(get_u64(ev, "window_ns")?),
                    fail_chance: get_f64(ev, "fail_chance")?,
                },
                "slow-tasks" => FaultKind::SlowTasks {
                    window: SimDuration::from_nanos(get_u64(ev, "window_ns")?),
                    factor: get_f64(ev, "factor")?,
                },
                "container-crash" => FaultKind::ContainerCrash {
                    service: ev
                        .get("service")
                        .and_then(|s| s.as_str())
                        .ok_or_else(|| "container-crash: missing service".to_string())?
                        .to_string(),
                },
                "spot-revoke" => FaultKind::SpotRevoke {
                    node: get_usize(ev, "node")?,
                    grace: SimDuration::from_nanos(get_u64(ev, "grace_ns")?),
                },
                other => return Err(format!("fault event: unknown kind {other:?}")),
            };
            plan.events.push(FaultEvent { at, kind });
        }
        Ok(plan)
    }

    /// Parse a plan from its JSON text (the printed form).
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("fault plan: {e}"))?;
        FaultPlan::from_json(&v)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// Non-overlapping (start, length) windows in seconds: exponential gaps of
/// mean `interval` between windows of mean length `window_mean`, within
/// `[0, horizon)`. An `interval` of zero disables the class entirely (and
/// draws nothing, so disabled classes cost no randomness).
fn windows(rng: &mut DetRng, interval: f64, window_mean: f64, horizon: f64) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    if interval <= 0.0 {
        return out;
    }
    let mut t = rng.exponential(interval);
    while t < horizon {
        let w = rng.exponential(window_mean.max(0.1)).max(0.25);
        out.push((t, w));
        t += w + rng.exponential(interval);
    }
    out
}

/// Sample the spot-revocation class into `plan`: each revocation delivers
/// a [`FaultKind::SpotRevoke`] notice at `t` and returns capacity via
/// [`FaultKind::NodeRecover`] after the grace window plus the sampled
/// outage. Its own named stream keeps it independent of every other class.
fn sample_spot_class(
    plan: &mut FaultPlan,
    profile: &ChaosProfile,
    seed: u64,
    h: f64,
    nodes: &[usize],
) {
    let mut rng = DetRng::new(seed, "chaos-spot");
    let grace = profile.spot_grace.max(0.0);
    for (t, w) in windows(
        &mut rng,
        profile.spot_revoke_interval,
        profile.spot_outage,
        h,
    ) {
        let node = nodes[rng.index(nodes.len())];
        plan.events.push(FaultEvent {
            at: SimDuration::from_secs_f64(t),
            kind: FaultKind::SpotRevoke {
                node,
                grace: SimDuration::from_secs_f64(grace),
            },
        });
        plan.events.push(FaultEvent {
            at: SimDuration::from_secs_f64(t + grace + w),
            kind: FaultKind::NodeRecover { node },
        });
    }
}

fn push_pair(plan: &mut FaultPlan, t: f64, window: f64, start: FaultKind, end: FaultKind) {
    plan.events.push(FaultEvent {
        at: SimDuration::from_secs_f64(t),
        kind: start,
    });
    plan.events.push(FaultEvent {
        at: SimDuration::from_secs_f64(t + window),
        kind: end,
    });
}

fn put_f64(m: &mut Map, name: &str, v: f64) {
    m.insert(name, Value::from(v));
    m.insert(format!("{name}_bits"), Value::from(v.to_bits()));
}

fn get_u64(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("fault plan: missing integer field {name:?}"))
}

fn get_usize(v: &Value, name: &str) -> Result<usize, String> {
    usize::try_from(get_u64(v, name)?).map_err(|_| format!("fault plan: {name:?} out of range"))
}

/// Read an f64 field, preferring the exact `<name>_bits` encoding. Both
/// forms are optional, but one that is present must be well typed: the bits
/// an integer, the decimal a number or `null` (how a non-finite one prints).
fn get_f64(v: &Value, name: &str) -> Result<f64, String> {
    let bad = || format!("fault plan: bad float field {name:?}");
    let bits = match v.get(&format!("{name}_bits")) {
        Some(x) => Some(x.as_u64().ok_or_else(bad)?),
        None => None,
    };
    let decimal = match v.get(name) {
        Some(Value::Null) | None => None,
        Some(x) => Some(x.as_f64().ok_or_else(bad)?),
    };
    bits.map(f64::from_bits)
        .or(decimal)
        .ok_or_else(|| format!("fault plan: missing float field {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde_json::json;
    use swf_simcore::secs;

    /// Events in non-decreasing time order.
    fn ordered(plan: &FaultPlan) -> bool {
        plan.events.windows(2).all(|w| w[0].at <= w[1].at)
    }

    fn sample_heavy(seed: u64) -> FaultPlan {
        FaultPlan::sample(
            &ChaosProfile::heavy(),
            seed,
            secs(300.0),
            0,
            &[1, 2, 3],
            &["chaos-fn".to_string()],
        )
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let a = sample_heavy(7);
        let b = sample_heavy(7);
        let c = sample_heavy(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should draw different plans");
        assert!(!a.is_empty());
        assert!(ordered(&a));
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let mut plan = sample_heavy(42);
        // Include an irrational factor that a decimal rendering would lose.
        plan.push(
            secs(1.0),
            FaultKind::DegradeLink {
                a: 0,
                b: 2,
                latency_factor: std::f64::consts::PI,
                bandwidth_factor: 1.0 / 3.0,
            },
        );
        let text = plan.to_string();
        let back = FaultPlan::parse(&text).unwrap();
        assert_eq!(plan, back);
        // Spot-check bit-exactness of the irrational factor.
        let degraded = back.events.iter().find_map(|e| match &e.kind {
            FaultKind::DegradeLink { latency_factor, .. } if e.at == secs(1.0) => {
                Some(*latency_factor)
            }
            _ => None,
        });
        assert_eq!(
            degraded.map(f64::to_bits),
            Some(std::f64::consts::PI.to_bits())
        );
    }

    #[test]
    fn calm_profile_samples_an_empty_plan() {
        let plan = FaultPlan::sample(
            &ChaosProfile::calm(),
            1,
            secs(1000.0),
            0,
            &[1, 2, 3],
            &["chaos-fn".to_string()],
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn spot_class_pairs_revocations_with_recoveries() {
        let plan = FaultPlan::sample(
            &ChaosProfile::spot(),
            11,
            secs(300.0),
            0,
            &[1, 2, 3],
            &["chaos-fn".to_string()],
        );
        assert!(!plan.is_empty(), "spot profile must sample revocations");
        let revokes: Vec<_> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::SpotRevoke { node, grace } => Some((e.at, node, grace)),
                _ => None,
            })
            .collect();
        let recovers = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeRecover { .. }))
            .count();
        assert_eq!(revokes.len(), recovers, "every revocation pairs a recovery");
        for (at, node, grace) in &revokes {
            assert_eq!(*grace, secs(10.0), "spot() grants a 10 s grace window");
            // The paired recovery lands after the grace window expires.
            assert!(plan.events.iter().any(|e| {
                matches!(e.kind, FaultKind::NodeRecover { node: n } if n == *node)
                    && e.at >= *at + *grace
            }));
        }
        // Round-trips bit-exactly like every other kind.
        let back = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn sample_spots_draws_only_from_the_spot_pool() {
        let spots = FaultPlan::sample_spots(&ChaosProfile::heavy_spot(), 4, secs(300.0), &[2, 3]);
        assert!(!spots.is_empty());
        for e in &spots.events {
            match e.kind {
                FaultKind::SpotRevoke { node, .. } | FaultKind::NodeRecover { node } => {
                    assert!(
                        node == 2 || node == 3,
                        "node {node} is not in the spot pool"
                    );
                }
                ref other => panic!("unexpected kind in spot-only plan: {other:?}"),
            }
        }
        // Merging keeps time order and the base plan's seed.
        let mut base = FaultPlan::sample(
            &ChaosProfile::heavy(),
            4,
            secs(300.0),
            0,
            &[1, 2, 3],
            &["chaos-fn".to_string()],
        );
        let base_len = base.len();
        let spot_len = spots.len();
        base.merge(spots);
        assert_eq!(base.len(), base_len + spot_len);
        assert!(ordered(&base));
        assert_eq!(base.seed, 4);
    }

    #[test]
    fn push_keeps_order() {
        let mut plan = FaultPlan::calm();
        plan.push(secs(5.0), FaultKind::RegistryOutageEnd);
        plan.push(secs(1.0), FaultKind::RegistryOutageStart);
        assert!(ordered(&plan));
        assert_eq!(plan.events[0].kind, FaultKind::RegistryOutageStart);
    }

    const SERVICES: [&str; 3] = ["chaos-fn", "nœud \"2\"/\u{0}", ""];

    /// A finite f64 from any bit pattern: a non-finite one prints as `null`
    /// and only its bits carry it.
    fn finite(rng: &mut TestRng) -> f64 {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            x
        } else {
            rng.next_f64()
        }
    }

    /// Plans of an event count drawn from the range: every kind, any node,
    /// instant, window and factor, events in any order.
    struct Plans(std::ops::Range<usize>);

    impl Strategy for Plans {
        type Value = FaultPlan;
        fn generate(&self, rng: &mut TestRng) -> FaultPlan {
            let events = (0..self.0.generate(rng))
                .map(|_| {
                    let (node, a, b) = (
                        rng.next_u64() as usize,
                        rng.next_u64() as usize,
                        rng.next_u64() as usize,
                    );
                    let window = SimDuration::from_nanos(rng.next_u64());
                    let service = SERVICES[(rng.next_u64() % 3) as usize].to_string();
                    let kind = match rng.next_u64() % 15 {
                        0 => FaultKind::NodeCrash { node },
                        1 => FaultKind::NodeRecover { node },
                        2 => FaultKind::CondorDrain { node },
                        3 => FaultKind::CondorResume { node },
                        4 => FaultKind::PodKill { service },
                        5 => FaultKind::Partition { a, b },
                        6 => FaultKind::Heal { a, b },
                        7 => FaultKind::DegradeLink {
                            a,
                            b,
                            latency_factor: finite(rng),
                            bandwidth_factor: finite(rng),
                        },
                        8 => FaultKind::RestoreLink { a, b },
                        9 => FaultKind::RegistryOutageStart,
                        10 => FaultKind::RegistryOutageEnd,
                        11 => FaultKind::FlakyTasks {
                            window,
                            fail_chance: finite(rng),
                        },
                        12 => FaultKind::SlowTasks {
                            window,
                            factor: finite(rng),
                        },
                        13 => FaultKind::ContainerCrash { service },
                        _ => FaultKind::SpotRevoke {
                            node,
                            grace: window,
                        },
                    };
                    FaultEvent {
                        at: SimDuration::from_nanos(rng.next_u64()),
                        kind,
                    }
                })
                .collect();
            FaultPlan {
                seed: rng.next_u64(),
                events,
            }
        }
    }

    /// Values `field` must not hold.
    fn wrong_values(field: &str) -> Vec<Value> {
        let not_integers = vec![
            json!(null),
            json!(true),
            json!(-1),
            json!(1.5),
            json!("7"),
            json!([7]),
            json!({}),
        ];
        let not_strings = vec![json!(null), json!(7), json!(true), json!(["a"]), json!({})];
        match field {
            "seed" | "at_ns" | "node" | "a" | "b" | "window_ns" | "grace_ns" => not_integers,
            f if f.ends_with("_bits") => not_integers,
            // `null` is how the decimal of a non-finite factor prints.
            "latency_factor" | "bandwidth_factor" | "fail_chance" | "factor" => {
                vec![json!(true), json!("1.5"), json!([1.5]), json!({})]
            }
            "kind" => [vec![json!("node-explode")], not_strings].concat(),
            "service" => not_strings,
            "events" => vec![json!(null), json!(7), json!("[]"), json!({}), json!([7])],
            other => panic!("{other} is not a fault plan field"),
        }
    }

    /// The field names of an object, in order.
    fn keys(v: &Value) -> Vec<String> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.to_string())
            .collect()
    }

    proptest! {
        #[test]
        fn plans_round_trip_through_text(plan in Plans(0..9)) {
            prop_assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
        }

        #[test]
        fn a_field_of_the_wrong_type_is_rejected(plan in Plans(1..9), at in any::<usize>()) {
            let doc = plan.to_json();
            let at = at % plan.len();
            for field in keys(&doc) {
                for wrong in wrong_values(&field) {
                    let mut doc = doc.clone();
                    *doc.get_mut(&field).unwrap() = wrong.clone();
                    prop_assert!(FaultPlan::from_json(&doc).is_err(), "{field}: {wrong}");
                }
            }
            for field in keys(&doc["events"][at]) {
                for wrong in wrong_values(&field) {
                    let mut doc = doc.clone();
                    let events = doc.get_mut("events").unwrap().as_array_mut().unwrap();
                    *events[at].get_mut(&field).unwrap() = wrong.clone();
                    prop_assert!(FaultPlan::from_json(&doc).is_err(), "event {at} {field}: {wrong}");
                }
            }
        }
    }
}
