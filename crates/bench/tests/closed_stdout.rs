//! `suite compare` into a reader that stops early (`suite compare A B |
//! head -1`): the comparison still decides the exit code, and closing the
//! pipe is not a panic.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn compare_into_a_closed_pipe_still_exits_with_its_verdict() {
    // The apps record at quick and at paper scale: nearly every leaf
    // drifts, and the report (about 95 KB) overfills a 64 KiB pipe buffer,
    // so the binary is still writing when the reader goes away.
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench");
    let mut child = Command::new(env!("CARGO_BIN_EXE_suite"))
        .arg("compare")
        .arg(bench.join("baseline-apps.json"))
        .arg(bench.join("baseline-apps-paper.json"))
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("suite starts");
    // Read the first line, as `head -1` does, then close the pipe.
    let mut stdout = child.stdout.take().expect("piped stdout");
    let mut first = [0u8; 64];
    let n = stdout.read(&mut first).expect("stdout readable");
    assert!(n > 0, "suite printed nothing");
    drop(stdout);
    let out = child.wait_with_output().expect("suite exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(stderr.contains("FAIL: drift"), "stderr: {stderr}");
}
