//! Regression guard for the memory of a `swf-spans/v1` export: the `Value`
//! tree `spans_to_json` builds costs at most `MAX_TREE_PER_TEXT_BYTE` times
//! the text it prints to.
//!
//! The tree is what the benchmark's `obs-export` pass holds at its peak.
//! Over `common::synthetic_run()` (100,600 spans, 15 MiB of text) it grew
//! the process by 6.5 times the text while an object was a `BTreeMap` and
//! each span owned a copy of its component, by 5.4 times once an object
//! became one sorted `Vec` and the spans of a collector shared one copy of
//! each component, and by 3.17 times since a JSON string of at most 22
//! bytes (every key, category, component and most names) is held in place
//! in a `serde_json::Str`. What is left is the floor of the format's tree:
//! per span one eight-entry `Vec` (56 bytes an entry) and its links,
//! against about 150 bytes of text.
//!
//! This file holds one test so that it has a process, and so a `VmHWM`,
//! of its own.
#![cfg(target_os = "linux")]

mod common;

use common::vm_hwm;
use swf_obs::spans_to_json;

/// Above the last reading and below the one before it.
const MAX_TREE_PER_TEXT_BYTE: usize = 4;

#[test]
fn a_spans_export_tree_costs_a_bounded_multiple_of_its_text() {
    let obs = common::synthetic_run();
    assert!(obs.span_count() >= 100_000, "{} spans", obs.span_count());
    let before = vm_hwm();
    let doc = spans_to_json(&[("synthetic", &obs)]);
    let grown = vm_hwm() - before;
    let text = serde_json::to_string(&doc).expect("a Value tree always prints");
    assert!(text.len() > 15_000_000, "{} bytes", text.len());
    assert!(
        grown < MAX_TREE_PER_TEXT_BYTE * text.len(),
        "process peak grew by {} MiB building the tree of a {} MiB export ({:.2}x)",
        grown >> 20,
        text.len() >> 20,
        grown as f64 / text.len() as f64
    );
}
