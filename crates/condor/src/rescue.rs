//! Rescue DAGs: the persistent record of a partially completed workflow,
//! and the one loop that resumes from it.
//!
//! Real DAGMan writes a *rescue DAG* (`<dag>.rescue001`) whenever a node
//! exhausts its retries: every node that already completed is marked DONE,
//! and resubmitting the same DAG against the rescue file re-executes only
//! the failed and never-started nodes. This module reproduces that artifact
//! as a JSON document that round-trips bit-exactly (like
//! `swf_chaos::FaultPlan`): completed node results carry their output bytes
//! and exact start/finish nanosecond timestamps, so a resumed run can inject
//! them verbatim and provably re-execute nothing. [`run_with_resumes`] is
//! the operator's side: persist the rescue, read it back, wait, resubmit.

use bytes::Bytes;
use serde_json::{Map, Value};
use swf_cluster::NodeId;
use swf_simcore::{sleep, SimDuration, SimTime};

use crate::dagman::DagRun;
use crate::job::JobResult;

/// What a rescue DAG records about one node.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeOutcome {
    /// The node completed successfully; its result is carried verbatim so a
    /// resume run injects it instead of re-executing.
    Done {
        /// The recorded result (output bytes and exact timestamps).
        result: JobResult,
    },
    /// The node exhausted its retries.
    Failed {
        /// Attempts made (first try included).
        attempts: u32,
        /// Last error text.
        last_error: String,
    },
    /// The node never ran to completion — either it was still waiting on
    /// parents, or a failed ancestor made it unreachable.
    Pending,
}

impl NodeOutcome {
    fn tag(&self) -> &'static str {
        match self {
            NodeOutcome::Done { .. } => "done",
            NodeOutcome::Failed { .. } => "failed",
            NodeOutcome::Pending => "pending",
        }
    }
}

/// One node's entry in a rescue DAG, in DAG insertion order.
#[derive(Clone, Debug, PartialEq)]
pub struct RescueNode {
    /// Node name (unique in the DAG).
    pub name: String,
    /// What happened to it.
    pub outcome: NodeOutcome,
}

/// The rescue DAG: a bit-exact, resumable snapshot of a halted workflow.
#[derive(Clone, Debug, PartialEq)]
pub struct RescueDag {
    /// The workflow name ([`crate::DagSpec::name`]) the rescue belongs to.
    pub workflow: String,
    /// Virtual instant the rescue was written (the halt time).
    pub written_at: SimTime,
    /// Per-node outcomes, in the DAG's node insertion order.
    pub nodes: Vec<RescueNode>,
}

impl RescueDag {
    /// Names of nodes recorded as done.
    pub fn done_nodes(&self) -> Vec<&str> {
        self.select(|o| matches!(o, NodeOutcome::Done { .. }))
    }

    /// Names of nodes recorded as failed.
    pub fn failed_nodes(&self) -> Vec<&str> {
        self.select(|o| matches!(o, NodeOutcome::Failed { .. }))
    }

    /// Names of nodes recorded as pending.
    pub fn pending_nodes(&self) -> Vec<&str> {
        self.select(|o| matches!(o, NodeOutcome::Pending))
    }

    fn select(&self, f: impl Fn(&NodeOutcome) -> bool) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|n| f(&n.outcome))
            .map(|n| n.name.as_str())
            .collect()
    }

    /// Total execution time recorded on done nodes — the task-seconds a
    /// resume run salvages instead of re-spending.
    pub fn salvaged_compute(&self) -> SimDuration {
        self.nodes
            .iter()
            .filter_map(|n| match &n.outcome {
                NodeOutcome::Done { result } => Some(result.execution_time()),
                _ => None,
            })
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }

    /// Serialize to a JSON tree. Output bytes are hex-encoded and
    /// timestamps are exact nanosecond integers, so
    /// `from_json(to_json(r)) == r` bit-for-bit.
    pub fn to_json(&self) -> Value {
        let mut root = Map::new();
        root.insert("workflow", Value::from(self.workflow.clone()));
        root.insert("written_at_ns", Value::from(self.written_at.as_nanos()));
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .map(|n| {
                let mut m = Map::new();
                m.insert("name", Value::from(n.name.clone()));
                m.insert("state", Value::from(n.outcome.tag()));
                match &n.outcome {
                    NodeOutcome::Done { result } => {
                        m.insert("success", Value::from(result.success));
                        m.insert("output_hex", Value::from(to_hex(&result.output)));
                        m.insert("exec_node", Value::from(result.node.0 as u64));
                        m.insert("started_ns", Value::from(result.started.as_nanos()));
                        m.insert("finished_ns", Value::from(result.finished.as_nanos()));
                    }
                    NodeOutcome::Failed {
                        attempts,
                        last_error,
                    } => {
                        m.insert("attempts", Value::from(*attempts));
                        m.insert("last_error", Value::from(last_error.clone()));
                    }
                    NodeOutcome::Pending => {}
                }
                Value::Object(m)
            })
            .collect();
        root.insert("nodes", Value::Array(nodes));
        Value::Object(root)
    }

    /// Parse a rescue DAG back from [`RescueDag::to_json`] output. A field
    /// that is missing, of the wrong type or out of range is an error.
    pub fn from_json(v: &Value) -> Result<RescueDag, String> {
        let workflow = get_str(v, "workflow")?.to_string();
        let written_at = SimTime::from_nanos(get_u64(v, "written_at_ns")?);
        let nodes = v
            .get("nodes")
            .and_then(|n| n.as_array())
            .ok_or_else(|| "rescue dag: missing nodes array".to_string())?;
        let mut out = Vec::with_capacity(nodes.len());
        for n in nodes {
            let name = get_str(n, "name")?.to_string();
            let outcome = match get_str(n, "state")? {
                "done" => NodeOutcome::Done {
                    result: JobResult {
                        success: get_bool(n, "success")?,
                        output: from_hex(get_str(n, "output_hex")?)?,
                        node: NodeId(get_int(n, "exec_node")?),
                        started: SimTime::from_nanos(get_u64(n, "started_ns")?),
                        finished: SimTime::from_nanos(get_u64(n, "finished_ns")?),
                    },
                },
                "failed" => NodeOutcome::Failed {
                    attempts: get_int(n, "attempts")?,
                    last_error: get_str(n, "last_error")?.to_string(),
                },
                "pending" => NodeOutcome::Pending,
                other => return Err(format!("rescue dag: unknown node state {other:?}")),
            };
            out.push(RescueNode { name, outcome });
        }
        Ok(RescueDag {
            workflow,
            written_at,
            nodes: out,
        })
    }

    /// Parse a rescue DAG from its JSON text (the printed form).
    pub fn parse(text: &str) -> Result<RescueDag, String> {
        let v = serde_json::from_str(text).map_err(|e| format!("rescue dag: {e}"))?;
        RescueDag::from_json(&v)
    }
}

impl std::fmt::Display for RescueDag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

/// Wait between a halt and its resumption: operator reaction time, and
/// room for the fault that halted the run to clear.
const RESUME_WAIT: SimDuration = SimDuration::from_secs(5);

/// What [`run_with_resumes`] did.
#[derive(Clone, Debug)]
pub struct ResumedRun {
    /// The last run: completed, or the halt that found the budget spent.
    pub run: DagRun,
    /// Resumes spent.
    pub rounds: u32,
    /// Node results carried over from rescue DAGs, summed over resumes.
    pub nodes_salvaged: usize,
    /// Execution seconds of those results: work no resume re-spent.
    pub salvaged_task_s: f64,
    /// The last rescue DAG as persisted, when `run` is a halt.
    pub rescue_text: Option<String>,
}

/// Why [`run_with_resumes`] stopped without a last run to report.
#[derive(Clone, Debug)]
pub enum ResumeError<E> {
    /// The caller's run failed outright.
    Run(E),
    /// The persisted rescue did not read back.
    Unreadable {
        /// The rescue text as persisted.
        text: String,
        /// What the parser said.
        error: String,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ResumeError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Run(e) => e.fmt(f),
            ResumeError::Unreadable { error, .. } => write!(f, "rescue persistence: {error}"),
        }
    }
}

/// Run a DAG, resuming it from its rescue DAG up to `budget` times (0 = run
/// once, never resume). `run_once` is one DAGMan run against the rescue it
/// is handed (`None` first). Each halt persists its rescue as JSON text and
/// resumes from the parsed copy — the path a rescue file takes through a
/// submit node's disk — after a five-second wait.
pub async fn run_with_resumes<E>(
    budget: u32,
    mut run_once: impl AsyncFnMut(Option<&RescueDag>) -> Result<DagRun, E>,
) -> Result<ResumedRun, ResumeError<E>> {
    let mut out = ResumedRun {
        run: run_once(None).await.map_err(ResumeError::Run)?,
        rounds: 0,
        nodes_salvaged: 0,
        salvaged_task_s: 0.0,
        rescue_text: None,
    };
    while let DagRun::Halted { rescue, .. } = &out.run {
        let text = rescue.to_string();
        if out.rounds >= budget {
            out.rescue_text = Some(text);
            break;
        }
        let reloaded = reload(text)?;
        out.rounds += 1;
        out.nodes_salvaged += reloaded.done_nodes().len();
        out.salvaged_task_s += reloaded.salvaged_compute().as_secs_f64();
        sleep(RESUME_WAIT).await;
        out.run = run_once(Some(&reloaded)).await.map_err(ResumeError::Run)?;
    }
    Ok(out)
}

fn reload<E>(text: String) -> Result<RescueDag, ResumeError<E>> {
    RescueDag::parse(&text).map_err(|error| ResumeError::Unreadable { text, error })
}

fn to_hex(b: &Bytes) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(b.len() * 2);
    for byte in b.iter() {
        let _ = write!(s, "{byte:02x}");
    }
    s
}

fn from_hex(s: &str) -> Result<Bytes, String> {
    if !s.len().is_multiple_of(2) {
        return Err("rescue dag: odd-length hex output".to_string());
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let chars: Vec<char> = s.chars().collect();
    for pair in chars.chunks(2) {
        let hi = pair[0]
            .to_digit(16)
            .ok_or_else(|| format!("rescue dag: bad hex digit {:?}", pair[0]))?;
        let lo = pair[1]
            .to_digit(16)
            .ok_or_else(|| format!("rescue dag: bad hex digit {:?}", pair[1]))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(Bytes::from(out))
}

fn get_u64(v: &Value, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(|x| x.as_u64())
        .ok_or_else(|| format!("rescue dag: missing integer field {name:?}"))
}

/// An integer field that must fit `T`.
fn get_int<T: TryFrom<u64>>(v: &Value, name: &str) -> Result<T, String> {
    T::try_from(get_u64(v, name)?).map_err(|_| format!("rescue dag: {name:?} out of range"))
}

fn get_bool(v: &Value, name: &str) -> Result<bool, String> {
    v.get(name)
        .and_then(|x| x.as_bool())
        .ok_or_else(|| format!("rescue dag: missing boolean field {name:?}"))
}

fn get_str<'a>(v: &'a Value, name: &str) -> Result<&'a str, String> {
    v.get(name)
        .and_then(|x| x.as_str())
        .ok_or_else(|| format!("rescue dag: missing string field {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dagman::DagReport;
    use proptest::prelude::*;
    use serde_json::json;
    use swf_simcore::{now, Sim};

    /// A run that halted with `sample()`, or completed.
    fn run_of(halted: bool) -> DagRun {
        let report = DagReport {
            node_results: Default::default(),
            started: now(),
            finished: now(),
            jobs_submitted: 0,
            wasted_compute: SimDuration::ZERO,
            root_span: swf_obs::SpanContext::NONE,
        };
        match halted {
            true => DagRun::Halted {
                rescue: sample(),
                report,
            },
            false => DagRun::Completed(report),
        }
    }

    #[test]
    fn budget_zero_returns_the_halt_without_sleeping_or_resubmitting() {
        Sim::new().block_on(async {
            let mut calls = 0;
            let run_once = async |_: Option<&RescueDag>| {
                calls += 1;
                Ok::<_, ()>(run_of(true))
            };
            let out = run_with_resumes(0, run_once).await.unwrap();
            assert_eq!((calls, now()), (1, SimTime::ZERO));
            assert!(matches!(out.run, DagRun::Halted { .. }));
            assert_eq!((out.rounds, out.nodes_salvaged), (0, 0));
            assert_eq!(out.rescue_text, Some(sample().to_string()));
        });
    }

    #[test]
    fn one_failure_inside_the_budget_completes_in_one_round() {
        Sim::new().block_on(async {
            // Halts once; the resume gets the reloaded rescue after the wait.
            let run_once = async |resume: Option<&RescueDag>| {
                if let Some(rescue) = resume {
                    assert_eq!((rescue, now()), (&sample(), SimTime::ZERO + RESUME_WAIT));
                }
                Ok::<_, ()>(run_of(resume.is_none()))
            };
            let out = run_with_resumes(2, run_once).await.unwrap();
            assert!(matches!(out.run, DagRun::Completed(_)));
            assert_eq!((out.rounds, out.nodes_salvaged), (1, 1));
            assert_eq!(out.salvaged_task_s, 17.0);
            assert_eq!(out.rescue_text, None);
        });
    }

    fn sample() -> RescueDag {
        RescueDag {
            workflow: "wf".into(),
            written_at: SimTime::from_nanos(123_456_789_012),
            nodes: vec![
                RescueNode {
                    name: "a".into(),
                    outcome: NodeOutcome::Done {
                        result: JobResult {
                            success: true,
                            output: Bytes::from(vec![0x00, 0xff, 0x7f, 0x80, 0x0a]),
                            node: NodeId(3),
                            started: SimTime::from_nanos(1),
                            finished: SimTime::from_nanos(17_000_000_001),
                        },
                    },
                },
                RescueNode {
                    name: "b".into(),
                    outcome: NodeOutcome::Failed {
                        attempts: 5,
                        last_error: "boom: \"quoted\" and 🦀".into(),
                    },
                },
                RescueNode {
                    name: "c".into(),
                    outcome: NodeOutcome::Pending,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_bit_exact() {
        let r = sample();
        let back = RescueDag::parse(&r.to_string()).unwrap();
        assert_eq!(r, back);
        // The recorded output bytes survive exactly, including non-UTF8.
        match &back.nodes[0].outcome {
            NodeOutcome::Done { result } => {
                assert_eq!(&result.output[..], &[0x00, 0xff, 0x7f, 0x80, 0x0a]);
                assert_eq!(result.started.as_nanos(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn selectors_partition_the_nodes() {
        let r = sample();
        assert_eq!(r.done_nodes(), vec!["a"]);
        assert_eq!(r.failed_nodes(), vec!["b"]);
        assert_eq!(r.pending_nodes(), vec!["c"]);
        assert_eq!(
            r.salvaged_compute(),
            SimDuration::from_nanos(17_000_000_000)
        );
    }

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(RescueDag::parse("{").is_err());
        assert!(RescueDag::parse("{\"workflow\": \"w\"}").is_err());
        let bad_hex = sample().to_string().replace("00ff7f800a", "zz");
        assert!(RescueDag::parse(&bad_hex).is_err());
        // The resume loop's reader keeps the text it could not read.
        let Err(ResumeError::Unreadable { text, error }) = reload::<()>(bad_hex.clone()) else {
            panic!("a bad hex digit must not read back");
        };
        assert_eq!(text, bad_hex);
        assert!(error.contains("hex"), "{error}");
        // A done node's `success` is read, never assumed: missing or not a
        // bool, the node is rejected rather than salvaged as a success.
        let mut doc = sample().to_json();
        *node_mut(&mut doc, 0).get_mut("success").unwrap() = Value::from("false");
        assert!(RescueDag::from_json(&doc).is_err());
        node_mut(&mut doc, 0)
            .as_object_mut()
            .unwrap()
            .remove("success");
        assert!(RescueDag::from_json(&doc).is_err());
        // An attempt count past `u32` is an error, not a truncation.
        let mut doc = sample().to_json();
        *node_mut(&mut doc, 1).get_mut("attempts").unwrap() = Value::from(u64::from(u32::MAX) + 5);
        assert!(RescueDag::from_json(&doc).is_err());
    }

    /// Node `i` of a rescue DAG document.
    fn node_mut(doc: &mut Value, i: usize) -> &mut Value {
        &mut doc.get_mut("nodes").unwrap().as_array_mut().unwrap()[i]
    }

    const NAMES: [&str; 4] = ["a", "wf0-t1", "nœud \"2\"/\u{0}", ""];
    const ERRORS: [&str; 3] = ["always fails", "boom: \"quoted\" and 🦀", ""];

    /// Rescue DAGs of a node count drawn from the range: every outcome, any
    /// output bytes, executing node, timestamps and attempt count.
    struct Rescues(std::ops::Range<usize>);

    impl Strategy for Rescues {
        type Value = RescueDag;
        fn generate(&self, rng: &mut TestRng) -> RescueDag {
            let nodes = (0..self.0.generate(rng))
                .map(|_| {
                    let outcome = match rng.next_u64() % 3 {
                        0 => NodeOutcome::Done {
                            result: JobResult {
                                success: rng.next_u64().is_multiple_of(2),
                                output: (0..rng.next_u64() % 9)
                                    .map(|_| rng.next_u64() as u8)
                                    .collect::<Vec<u8>>()
                                    .into(),
                                node: NodeId(rng.next_u64() as usize),
                                started: SimTime::from_nanos(rng.next_u64()),
                                finished: SimTime::from_nanos(rng.next_u64()),
                            },
                        },
                        1 => NodeOutcome::Failed {
                            attempts: rng.next_u64() as u32,
                            last_error: ERRORS[(rng.next_u64() % 3) as usize].to_string(),
                        },
                        _ => NodeOutcome::Pending,
                    };
                    RescueNode {
                        name: NAMES[(rng.next_u64() % 4) as usize].to_string(),
                        outcome,
                    }
                })
                .collect();
            RescueDag {
                workflow: NAMES[(rng.next_u64() % 4) as usize].to_string(),
                written_at: SimTime::from_nanos(rng.next_u64()),
                nodes,
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
            "written_at_ns" | "exec_node" | "started_ns" | "finished_ns" => not_integers,
            "attempts" => [vec![json!(u64::from(u32::MAX) + 1)], not_integers].concat(),
            "workflow" | "name" | "last_error" => not_strings,
            "state" => [vec![json!("queued")], not_strings].concat(),
            "output_hex" => [vec![json!("zz"), json!("abc")], not_strings].concat(),
            "success" => vec![
                json!(null),
                json!(1),
                json!("true"),
                json!([true]),
                json!({}),
            ],
            "nodes" => vec![json!(null), json!(7), json!("[]"), json!({}), json!([7])],
            other => panic!("{other} is not a rescue DAG field"),
        }
    }

    /// The field names of an object, in order.
    fn keys(v: &Value) -> Vec<String> {
        v.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    proptest! {
        #[test]
        fn rescue_dags_round_trip_through_text(dag in Rescues(0..9)) {
            prop_assert_eq!(RescueDag::parse(&dag.to_string()), Ok(dag));
        }

        #[test]
        fn a_field_of_the_wrong_type_is_rejected(dag in Rescues(1..9), at in any::<usize>()) {
            let doc = dag.to_json();
            let at = at % dag.nodes.len();
            for field in keys(&doc) {
                for wrong in wrong_values(&field) {
                    let mut doc = doc.clone();
                    *doc.get_mut(&field).unwrap() = wrong.clone();
                    prop_assert!(RescueDag::from_json(&doc).is_err(), "{field}: {wrong}");
                }
            }
            for field in keys(&doc["nodes"][at]) {
                for wrong in wrong_values(&field) {
                    let mut doc = doc.clone();
                    *node_mut(&mut doc, at).get_mut(&field).unwrap() = wrong.clone();
                    prop_assert!(RescueDag::from_json(&doc).is_err(), "node {at} {field}: {wrong}");
                }
            }
        }
    }
}
