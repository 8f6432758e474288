//! Chrome-trace / Perfetto export (`trace_event` JSON array format).
//!
//! One trace "process" per simulated node (the part of the component
//! path before `/`), one "thread" per component within it. Spans become
//! `ph:"X"` complete events with microsecond timestamps; zero-length
//! spans become `ph:"i"` instants; causal links become `ph:"s"`/`ph:"f"`
//! flow events. The output loads directly in `chrome://tracing` and
//! <https://ui.perfetto.dev>.
//!
//! The exporter is a writer: it walks the spans once and prints each
//! event's text, so an export costs its own length in memory and not a
//! tree of a quarter of a million JSON objects. The bytes are the ones
//! `serde_json::to_string` would print for that tree — compact, object
//! keys in sorted order (`args,cat,dur,name,ph,pid,s,tid,ts`; flows
//! `bp,cat,id,…`), strings through the shim's own escaper — and
//! `tests/chrome_golden.rs` holds the writer to them.

use std::collections::BTreeMap;
use std::fmt;

use serde_json::write_escaped;
use swf_simcore::SimTime;

use crate::span::{split_component, Span, SpanIndex};

fn micros(t: SimTime) -> u64 {
    let ns = (t - SimTime::ZERO).as_nanos();
    ns / 1_000
}

/// Streams one Chrome-trace JSON array into `out`, a group of spans at a
/// time, so several runs coexist in one file.
///
/// Pids and flow ids are numbered per *file*: a group's pids follow the
/// last pid of the group before it, and its flow ids start above the
/// highest one written so far, so every pid has one `process_name` and no
/// flow arrow binds across groups. A file of one group reads pids from 1
/// and flow ids `span_id × 1000 + link index`.
pub struct ChromeTraceWriter<W> {
    out: W,
    started: bool,
    last_pid: u64,
    flow_base: u64,
}

impl<W: fmt::Write> ChromeTraceWriter<W> {
    /// A writer that has printed nothing yet.
    pub fn new(out: W) -> Self {
        ChromeTraceWriter {
            out,
            started: false,
            last_pid: 0,
            flow_base: 0,
        }
    }

    /// Append one group's events: `process_name` then `thread_name`
    /// metadata in sorted name order, then every span in slice order, each
    /// followed by the flow pairs of its causal links.
    ///
    /// `prefix` (e.g. a fig6 mix label) namespaces the process names.
    pub fn group(&mut self, spans: &[Span], prefix: &str) -> fmt::Result {
        // Deterministic pid/tid assignment, once per distinct component:
        // processes in sorted name order, threads in sorted order within.
        let mut threads: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
        for s in spans {
            threads.entry(split_component(&s.component)).or_default();
        }
        let mut at = (self.last_pid, 0);
        let mut process = None;
        for ((name, _), slot) in threads.iter_mut() {
            if process != Some(*name) {
                process = Some(*name);
                at = (at.0 + 1, 0);
                let label = if prefix.is_empty() {
                    name.to_string()
                } else {
                    format!("{prefix}/{name}")
                };
                self.metadata("process_name", &label, at)?;
            }
            at.1 += 1;
            *slot = at;
        }
        self.last_pid = at.0;
        for ((_, thread), at) in &threads {
            self.metadata("thread_name", thread, *at)?;
        }

        let index = SpanIndex::new(spans);
        let mut next_flow_base = self.flow_base;
        for s in spans {
            let at = threads[&split_component(&s.component)];
            let ts = micros(s.start);
            let end = micros(s.end_or_start());
            self.open(r#"{"args":{"parent":"#)?;
            let (parent, id, cat) = (s.parent.0, s.id.0, s.category.label());
            write!(self.out, r#"{parent},"span":{id}}},"cat":"{cat}","#)?;
            if end > ts {
                write!(self.out, r#""dur":{},"#, end - ts)?;
            }
            self.out.write_str(r#""name":"#)?;
            write_escaped(&s.name, &mut self.out)?;
            if end > ts {
                self.close("X", at, "", ts)?;
            } else {
                self.close("i", at, r#""s":"t","#, ts)?;
            }

            // Causal links as flow events: start at the upstream span's end,
            // finish at this span's start. A link to a span outside the
            // slice (id 0 included) draws nothing but keeps its index.
            for (k, up_id) in s.links.iter().enumerate() {
                let Some(up) = index.get(*up_id) else {
                    continue;
                };
                let id = self.flow_base + s.id.0 * 1_000 + k as u64;
                next_flow_base = next_flow_base.max(id + 1);
                let up_at = threads[&split_component(&up.component)];
                let up_end = micros(up.end_or_start());
                self.flow(r#"{"cat":"link","id":"#, id, "s", up_at, up_end)?;
                self.flow(r#"{"bp":"e","cat":"link","id":"#, id, "f", at, ts)?;
            }
        }
        self.flow_base = next_flow_base;
        Ok(())
    }

    /// Close the array and hand the sink back.
    pub fn finish(mut self) -> Result<W, fmt::Error> {
        if !self.started {
            self.out.write_char('[')?;
        }
        self.out.write_char(']')?;
        Ok(self.out)
    }

    /// Begin an event: the array's `[` or the `,` after the event before,
    /// then the event's first bytes.
    fn open(&mut self, head: &str) -> fmt::Result {
        self.out.write_char(if self.started { ',' } else { '[' })?;
        self.started = true;
        self.out.write_str(head)
    }

    /// The keys every event ends with, which sort after `name`; an
    /// instant's scope key `s` falls between `pid` and `tid`.
    fn close(&mut self, ph: &str, (pid, tid): (u64, u64), scope: &str, ts: u64) -> fmt::Result {
        write!(
            self.out,
            r#","ph":"{ph}","pid":{pid},{scope}"tid":{tid},"ts":{ts}}}"#
        )
    }

    fn flow(&mut self, head: &str, id: u64, ph: &str, at: (u64, u64), ts: u64) -> fmt::Result {
        self.open(head)?;
        write!(self.out, r#"{id},"name":"causal""#)?;
        self.close(ph, at, "", ts)
    }

    fn metadata(&mut self, kind: &str, label: &str, at: (u64, u64)) -> fmt::Result {
        self.open(r#"{"args":{"name":"#)?;
        write_escaped(label, &mut self.out)?;
        write!(self.out, r#"}},"name":"{kind}""#)?;
        self.close("M", at, "", 0)
    }
}

/// Export `spans` as the text of one Chrome-trace JSON array, process
/// names namespaced by `prefix` when it is not empty.
pub fn chrome_trace_to_string(spans: &[Span], prefix: &str) -> String {
    // `fmt::Write` for `String` never returns an error.
    let mut trace = ChromeTraceWriter::new(String::new());
    trace
        .group(spans, prefix)
        .and_then(|()| trace.finish())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Category, SpanContext, SpanId};
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
        let events = parsed(&chrome_trace_to_string(&spans, ""));
        // 3 processes + 3 threads metadata, 3 span events, 1 flow pair.
        assert_eq!(events.len(), 3 + 3 + 3 + 2);
        for e in &events {
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

    fn parsed(text: &str) -> Vec<serde_json::Value> {
        let doc = serde_json::from_str(text).expect("valid JSON");
        doc.as_array().expect("array of trace events").clone()
    }

    #[test]
    fn prefix_namespaces_processes() {
        let spans = sample_spans();
        let events = parsed(&chrome_trace_to_string(&spans, "all-native"));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert_eq!(names.len(), 3);
        assert!(
            names.iter().all(|n| n.starts_with("all-native/")),
            "{names:?}"
        );
    }

    #[test]
    fn timestamps_are_micros() {
        let spans = sample_spans();
        let events = parsed(&chrome_trace_to_string(&spans, ""));
        let wf = events
            .iter()
            .find(|e| e["name"].as_str() == Some("workflow:w0"))
            .unwrap();
        assert_eq!(wf["ts"].as_u64(), Some(0));
        assert_eq!(wf["dur"].as_u64(), Some(1_500_000));
    }

    #[test]
    fn a_link_to_no_span_draws_no_flow() {
        // An imported span can name link id 0 or an id past the list.
        let mut spans = sample_spans();
        spans[2].links = vec![SpanId::NONE, spans[1].id, SpanId(99)];
        let events = parsed(&chrome_trace_to_string(&spans, ""));
        let flows: Vec<_> = events
            .iter()
            .filter(|e| e["cat"].as_str() == Some("link"))
            .collect();
        assert_eq!(flows.len(), 2);
        // The flow id keeps the link's index among all three.
        assert!(flows.iter().all(|e| e["id"].as_u64() == Some(3_001)));
    }

    #[test]
    fn a_link_finds_its_span_in_a_filtered_slice() {
        // Without `workflow:w0` the linked `pod-start` (id 2) sits at slot
        // 0, where a dense lookup would read slot 1: `cold-wait` itself.
        let spans = &sample_spans()[1..];
        let events = parsed(&chrome_trace_to_string(spans, ""));
        let start = events
            .iter()
            .find(|e| e["ph"].as_str() == Some("s"))
            .expect("one flow");
        let pod = events
            .iter()
            .find(|e| e["name"].as_str() == Some("pod-start"))
            .unwrap();
        assert_eq!(start["pid"], pod["pid"]);
        assert_eq!(start["ts"].as_u64(), Some(1_500_000));
    }

    #[test]
    fn groups_of_one_file_share_no_pid_and_no_flow_id() {
        let spans = sample_spans();
        let mut trace = ChromeTraceWriter::new(String::new());
        trace.group(&spans, "a").unwrap();
        trace.group(&[], "empty").unwrap();
        trace.group(&spans, "b").unwrap();
        let events = parsed(&trace.finish().unwrap());
        assert_eq!(events.len(), 2 * (3 + 3 + 3 + 2));
        let named: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e["name"].as_str() == Some("process_name"))
            .map(|e| {
                (
                    e["pid"].as_u64().unwrap(),
                    e["args"]["name"].as_str().unwrap(),
                )
            })
            .collect();
        assert_eq!(
            named,
            [
                (1, "a/condor"),
                (2, "a/knative"),
                (3, "a/node-1"),
                (4, "b/condor"),
                (5, "b/knative"),
                (6, "b/node-1"),
            ]
        );
        let starts: Vec<u64> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("s"))
            .map(|e| e["id"].as_u64().unwrap())
            .collect();
        assert_eq!(starts, [3_000, 6_001]);
        assert_eq!(
            ChromeTraceWriter::new(String::new()).finish().as_deref(),
            Ok("[]")
        );
    }
}
