//! Chrome-trace / Perfetto export (`trace_event` JSON array format).
//!
//! One trace "process" per simulated node (the part of the component
//! path before `/`), one "thread" per component within it. Spans become
//! `ph:"X"` complete events with microsecond timestamps; zero-length
//! spans become `ph:"i"` instants; causal links become `ph:"s"`/`ph:"f"`
//! flow events. The output loads directly in `chrome://tracing` and
//! <https://ui.perfetto.dev>.

use std::collections::BTreeMap;

use swf_simcore::SimTime;

use crate::span::Span;

fn micros(t: SimTime) -> u64 {
    let ns = (t - SimTime::ZERO).as_nanos();
    ns / 1_000
}

fn event(ph: &str, name: &str, cat: &str, pid: u64, tid: u64, ts: u64) -> serde_json::Map {
    let mut e = serde_json::Map::new();
    e.insert("ph".to_string(), serde_json::Value::from(ph));
    e.insert("name".to_string(), serde_json::Value::from(name));
    if !cat.is_empty() {
        e.insert("cat".to_string(), serde_json::Value::from(cat));
    }
    e.insert("pid".to_string(), serde_json::Value::from(pid));
    e.insert("tid".to_string(), serde_json::Value::from(tid));
    e.insert("ts".to_string(), serde_json::Value::from(ts));
    e
}

fn metadata(kind: &str, label: &str, pid: u64, tid: u64) -> serde_json::Value {
    let mut e = event("M", kind, "", pid, tid, 0);
    let mut args = serde_json::Map::new();
    args.insert("name".to_string(), serde_json::Value::from(label));
    e.insert("args".to_string(), serde_json::Value::Object(args));
    serde_json::Value::Object(e)
}

/// Export `spans` as a Chrome-trace JSON array.
///
/// `prefix` (e.g. a fig6 mix label) namespaces process names so traces
/// from several runs can be merged into one viewable file.
pub fn chrome_trace(spans: &[Span], prefix: &str) -> serde_json::Value {
    // Deterministic pid/tid assignment: sorted name order.
    let mut processes: BTreeMap<String, u64> = BTreeMap::new();
    let mut threads: BTreeMap<(String, String), u64> = BTreeMap::new();
    for s in spans {
        let process = if prefix.is_empty() {
            s.process().to_string()
        } else {
            format!("{prefix}/{}", s.process())
        };
        processes.entry(process.clone()).or_insert(0);
        threads
            .entry((process, s.thread().to_string()))
            .or_insert(0);
    }
    for (i, pid) in processes.values_mut().enumerate() {
        *pid = i as u64 + 1;
    }
    let mut next_tid: BTreeMap<String, u64> = BTreeMap::new();
    for ((process, _), tid) in threads.iter_mut() {
        let n = next_tid.entry(process.clone()).or_insert(0);
        *n += 1;
        *tid = *n;
    }

    let mut events: Vec<serde_json::Value> = Vec::new();
    for (process, pid) in &processes {
        events.push(metadata("process_name", process, *pid, 0));
    }
    for ((process, thread), tid) in &threads {
        events.push(metadata("thread_name", thread, processes[process], *tid));
    }

    for s in spans {
        let process = if prefix.is_empty() {
            s.process().to_string()
        } else {
            format!("{prefix}/{}", s.process())
        };
        let pid = processes[&process];
        let tid = threads[&(process, s.thread().to_string())];
        let ts = micros(s.start);
        let end = micros(s.end_or_start());
        let mut e = if end > ts {
            let mut e = event("X", &s.name, s.category.label(), pid, tid, ts);
            e.insert("dur".to_string(), serde_json::Value::from(end - ts));
            e
        } else {
            let mut e = event("i", &s.name, s.category.label(), pid, tid, ts);
            e.insert("s".to_string(), serde_json::Value::from("t"));
            e
        };
        let mut args = serde_json::Map::new();
        args.insert("span".to_string(), serde_json::Value::from(s.id.0));
        args.insert("parent".to_string(), serde_json::Value::from(s.parent.0));
        e.insert("args".to_string(), serde_json::Value::Object(args));
        events.push(serde_json::Value::Object(e));

        // Causal links as flow events: start at the upstream span's end,
        // finish at this span's start.
        for (k, up_id) in s.links.iter().enumerate() {
            let Some(up) = spans.get(up_id.0 as usize - 1) else {
                continue;
            };
            let up_process = if prefix.is_empty() {
                up.process().to_string()
            } else {
                format!("{prefix}/{}", up.process())
            };
            let flow_id = s.id.0 * 1_000 + k as u64;
            let mut start = event(
                "s",
                "causal",
                "link",
                processes[&up_process],
                threads[&(up_process, up.thread().to_string())],
                micros(up.end_or_start()),
            );
            start.insert("id".to_string(), serde_json::Value::from(flow_id));
            events.push(serde_json::Value::Object(start));
            let mut finish = event("f", "causal", "link", pid, tid, ts);
            finish.insert("id".to_string(), serde_json::Value::from(flow_id));
            finish.insert("bp".to_string(), serde_json::Value::from("e"));
            events.push(serde_json::Value::Object(finish));
        }
    }
    serde_json::Value::Array(events)
}

/// [`chrome_trace`] rendered to its on-disk JSON string.
pub fn chrome_trace_to_string(spans: &[Span], prefix: &str) -> String {
    // Straight into one `String`, which cannot fail; `Display` would pay
    // a dynamic call per token through its formatter.
    serde_json::to_string(&chrome_trace(spans, prefix)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Category, SpanContext};
    use crate::Obs;
    use swf_simcore::{secs, sleep, Sim};

    fn sample_spans() -> Vec<Span> {
        let obs = Obs::enabled();
        let sim = Sim::new();
        let h = obs.clone();
        sim.block_on(async move {
            let wf = h.start_span(
                SpanContext::NONE,
                "condor/dagman",
                "workflow:w0",
                Category::Queue,
            );
            sleep(secs(0.5)).await;
            let pod = h.start_span(
                SpanContext::NONE,
                "node-1/kubelet",
                "pod-start",
                Category::ColdStart,
            );
            sleep(secs(1.0)).await;
            h.end(pod);
            let wait = h.start_span(wf, "knative/activator", "cold-wait", Category::ColdStart);
            h.link_from(wait, pod);
            h.end(wait);
            h.end(wf);
        });
        obs.spans()
    }

    #[test]
    fn export_is_valid_and_complete() {
        let spans = sample_spans();
        let text = chrome_trace_to_string(&spans, "");
        let parsed = serde_json::from_str(&text).unwrap();
        let events = parsed.as_array().expect("array of trace events");
        // 3 processes + 3 threads metadata, 3 span events, 1 flow pair.
        assert_eq!(events.len(), 3 + 3 + 3 + 2);
        for e in events {
            assert!(e.get("ph").is_some());
            assert!(e.get("pid").is_some());
        }
        let x_events: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(x_events.len(), 2, "two non-zero-length spans");
        assert!(x_events
            .iter()
            .any(|e| e["name"].as_str() == Some("workflow:w0")));
    }

    #[test]
    fn prefix_namespaces_processes() {
        let spans = sample_spans();
        let json = chrome_trace(&spans, "all-native");
        let names: Vec<String> = json
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .map(|e| e["args"]["name"].as_str().unwrap().to_string())
            .collect();
        assert!(
            names.iter().all(|n| n.starts_with("all-native/")),
            "{names:?}"
        );
    }

    #[test]
    fn timestamps_are_micros() {
        let spans = sample_spans();
        let json = chrome_trace(&spans, "");
        let wf = json
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e["name"].as_str() == Some("workflow:w0"))
            .unwrap();
        assert_eq!(wf["ts"].as_u64(), Some(0));
        assert_eq!(wf["dur"].as_u64(), Some(1_500_000));
    }
}
