//! Property tests of the streaming Chrome exporter: whatever the span
//! forest, the text it prints is a JSON document a viewer can load — one
//! event per span, one flow pair per link that names a span in the list,
//! metadata for every pid/tid an event sits on — and two groups written
//! into one file share neither a pid nor a flow id.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use serde_json::Value;
use swf_obs::{chrome_trace_to_string, Category, ChromeTraceWriter, Span, SpanId};
use swf_simcore::SimTime;

/// Component and name fragments: flat and nested paths that share a
/// process, and every kind of character the escaper treats differently.
const COMPONENTS: [&str; 7] = [
    "condor",
    "condor/dagman",
    "condor/condor",
    "node-1/kubelet",
    "nœud \"2\"/pod\\0",
    "a\u{1}b/c\td",
    "",
];
const NAMES: [&str; 6] = [
    "",
    "workflow:w0",
    "pull \"img\"",
    "back\\slash\n",
    "é→ü 😀",
    "\u{0}\u{1f}",
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(rng.next_u64() % from.len() as u64) as usize]
}

/// Span lists of up to 40 spans with dense ids: parents before children,
/// open, zero-length and sub-microsecond spans, and links to earlier,
/// later and missing ids (0 and past the end included).
struct Forests;

impl Strategy for Forests {
    type Value = Vec<Span>;
    fn generate(&self, rng: &mut TestRng) -> Vec<Span> {
        let len = rng.next_u64() % 41;
        (1..=len)
            .map(|id| {
                let start = rng.next_u64() % 5_000_000;
                let long = rng.next_u64() % 3_000_000;
                let length = pick(rng, &[0, 0, 999, 1_000, long]);
                let links = rng.next_u64() % 4;
                Span {
                    id: SpanId(id),
                    parent: SpanId(rng.next_u64() % id),
                    component: pick(rng, &COMPONENTS).to_string(),
                    name: pick(rng, &NAMES).to_string(),
                    category: pick(rng, &Category::ALL),
                    start: SimTime::from_nanos(start),
                    end: pick(rng, &[Some(start + length), Some(start + length), None])
                        .map(SimTime::from_nanos),
                    links: (0..links)
                        .map(|_| SpanId(rng.next_u64() % (len + 3)))
                        .collect(),
                }
            })
            .collect()
    }
}

fn events_of(text: &str) -> Result<Vec<Value>, String> {
    let doc = serde_json::from_str(text).map_err(|e| format!("{e}: {text}"))?;
    doc.as_array()
        .cloned()
        .ok_or(format!("not an array: {text}"))
}

fn ph(event: &Value) -> &str {
    event["ph"].as_str().unwrap_or("")
}

fn place(event: &Value) -> (Option<u64>, Option<u64>) {
    (event["pid"].as_u64(), event["tid"].as_u64())
}

/// What every well-formed trace satisfies; returns its pids by process
/// name and its flow ids.
fn check(spans: &[Span], events: &[Value]) -> Result<(BTreeMap<u64, String>, Vec<u64>), String> {
    let mut processes = BTreeMap::new();
    let mut threads = BTreeSet::new();
    for e in events.iter().filter(|e| ph(e) == "M") {
        let (Some(pid), Some(tid)) = place(e) else {
            return Err(format!("metadata without a place: {e}"));
        };
        let label = e["args"]["name"].as_str().ok_or("unnamed metadata")?;
        let fresh = match e["name"].as_str() {
            Some("process_name") => processes.insert(pid, label.to_string()).is_none(),
            Some("thread_name") => threads.insert((pid, tid)),
            _ => false,
        };
        if !fresh {
            return Err(format!("repeated or unknown metadata: {e}"));
        }
    }
    let names: BTreeSet<&String> = processes.values().collect();
    if names.len() != processes.len() {
        return Err(format!("two pids share a process name: {processes:?}"));
    }

    // One X or i event per span, in slice order, on a named thread.
    let drawn: Vec<&Value> = events
        .iter()
        .filter(|e| matches!(ph(e), "X" | "i"))
        .collect();
    if drawn.len() != spans.len() {
        return Err(format!("{} events for {} spans", drawn.len(), spans.len()));
    }
    for (s, e) in spans.iter().zip(&drawn) {
        let micros = |t: SimTime| t.as_nanos() / 1_000;
        let dur = micros(s.end_or_start()) - micros(s.start);
        let same = e["args"]["span"].as_u64() == Some(s.id.0)
            && e["args"]["parent"].as_u64() == Some(s.parent.0)
            && e["name"].as_str() == Some(&s.name)
            && e["cat"].as_str() == Some(s.category.label())
            && e["ts"].as_u64() == Some(micros(s.start))
            && e["dur"].as_u64() == (dur > 0).then_some(dur)
            && (ph(e) == "X") == (dur > 0);
        if !same {
            return Err(format!("{s:?} drawn as {e}"));
        }
    }

    // One s/f pair per link that names a span of the list.
    let ids = |kind: &str| -> Vec<u64> {
        let flows = events.iter().filter(|e| ph(e) == kind);
        flows.filter_map(|e| e["id"].as_u64()).collect()
    };
    let (starts, finishes) = (ids("s"), ids("f"));
    let links = spans.iter().flat_map(|s| &s.links);
    let resolvable = links.filter(|l| (1..=spans.len() as u64).contains(&l.0));
    let unique: BTreeSet<u64> = starts.iter().copied().collect();
    if starts != finishes || starts.len() != resolvable.count() || unique.len() != starts.len() {
        return Err(format!("flow starts {starts:?}, finishes {finishes:?}"));
    }

    for e in events.iter().filter(|e| ph(e) != "M") {
        let (Some(pid), Some(tid)) = place(e) else {
            return Err(format!("event without a place: {e}"));
        };
        if !processes.contains_key(&pid) || !threads.contains(&(pid, tid)) {
            return Err(format!("no metadata for the place of {e}"));
        }
    }
    Ok((processes, starts))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_forest_prints_a_loadable_trace(spans in Forests, prefixed in 0u8..2) {
        let prefix = if prefixed == 1 { "mix \"α\"" } else { "" };
        let events = events_of(&chrome_trace_to_string(&spans, prefix));
        prop_assert!(events.is_ok(), "{:?}", events);
        let checked = check(&spans, &events.unwrap());
        prop_assert!(checked.is_ok(), "{:?}", checked);
        let (processes, _) = checked.unwrap();
        prop_assert!(processes.values().all(|name| name.starts_with(prefix)), "{:?}", processes);
        // Pids count from 1 in a file of one group.
        prop_assert!(processes.keys().copied().eq(1..=processes.len() as u64), "{:?}", processes);
    }

    #[test]
    fn two_groups_in_one_file_share_no_pid_and_no_flow_id(a in Forests, b in Forests) {
        let mut trace = ChromeTraceWriter::new(String::new());
        trace.group(&a, "a").unwrap();
        trace.group(&b, "b").unwrap();
        let merged = events_of(&trace.finish().unwrap());
        prop_assert!(merged.is_ok(), "{:?}", merged);
        let merged = merged.unwrap();

        // The first group reads as it would alone; the second is a
        // well-formed trace of its own on pids and flow ids past the first's.
        let alone = events_of(&chrome_trace_to_string(&a, "a")).unwrap();
        prop_assert_eq!(&merged[..alone.len()], &alone[..]);
        let first = check(&a, &alone);
        let second = check(&b, &merged[alone.len()..]);
        prop_assert!(first.is_ok() && second.is_ok(), "{:?} {:?}", first, second);
        let ((pids_a, flows_a), (pids_b, flows_b)) = (first.unwrap(), second.unwrap());
        prop_assert!(pids_b.keys().copied().eq((1..).skip(pids_a.len()).take(pids_b.len())));
        prop_assert!(flows_b.iter().all(|id| flows_a.iter().all(|seen| id > seen)));
        prop_assert!(pids_a.values().all(|n| n.starts_with("a/")));
        prop_assert!(pids_b.values().all(|n| n.starts_with("b/")));
    }
}
