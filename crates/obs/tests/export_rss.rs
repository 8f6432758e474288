//! Regression guard for the Chrome exporter's memory: printing a trace
//! costs about the text it prints, not a tree of JSON objects.
//!
//! The exporter used to build a `serde_json::Value` per event — a B-tree
//! node and six to nine heap-allocated key strings each — only to print it
//! and drop it: twelve times the length of the text, and the high-water
//! mark of a whole `obs-export` pass. A writer grows the process by the
//! `String` it returns.
//!
//! This file holds one test so that it has a process, and so a `VmHWM`,
//! of its own.
#![cfg(target_os = "linux")]

mod common;

use common::vm_hwm;
use swf_obs::chrome_trace_to_string;

#[test]
fn a_chrome_export_grows_the_process_by_its_text() {
    // The collector stays alive beside the snapshot, as in a real export,
    // so the export cannot hide in memory a dropped copy left behind.
    let obs = common::synthetic_run();
    let spans = obs.spans();
    assert!(spans.len() >= 100_000, "{} spans", spans.len());
    let before = vm_hwm();
    let text = chrome_trace_to_string(&spans, "synthetic");
    let grown = vm_hwm() - before;
    assert!(text.len() > 10_000_000, "{} bytes", text.len());
    assert!(
        grown < 4 * text.len(),
        "process peak grew by {} MiB printing a {} MiB trace: something builds it before printing",
        grown >> 20,
        text.len() >> 20
    );
}
