//! Golden tests for the `obsq` binary over a checked-in trace fixture.
//!
//! `tests/fixtures/spans.json` is a hand-authored `swf-spans/v1`
//! document mirroring the paper's story: an ablation group whose
//! claim-activation span covers 74 s of a 79.8 s makespan, and a
//! serverless group with a cold-start chain. Each golden file is the
//! byte-exact output of one query — query output is part of the
//! determinism surface, so any change here is a deliberate,
//! bless-the-golden change, never drift.

use std::path::Path;
use std::process::Command;

fn fixture(name: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Run `obsq` with `args` against the fixture; return stdout.
fn obsq(args: &[&str]) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_obsq"));
    cmd.arg(args[0]).arg(fixture("spans.json")).args(&args[1..]);
    let out = cmd.output().expect("spawn obsq");
    assert!(
        out.status.success(),
        "obsq {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(fixture(name)).expect("read golden")
}

#[test]
fn summary_matches_golden() {
    let out = obsq(&["summary"]);
    assert_eq!(out, golden("golden_summary.txt"));
    // The headline the fixture was built for: claim-activation is the
    // top offender by self time, not the enclosing workflow root.
    assert!(
        out.contains("top offender: claim-activation — 74.0s self time across 1 spans"),
        "{out}"
    );
}

#[test]
fn spans_matches_golden() {
    assert_eq!(obsq(&["spans", "--top", "3"]), golden("golden_spans.txt"));
}

#[test]
fn group_by_matches_golden() {
    assert_eq!(
        obsq(&["group-by", "--group", "category"]),
        golden("golden_groupby.json")
    );
}

#[test]
fn folded_matches_golden() {
    let out = obsq(&["folded"]);
    assert_eq!(out, golden("golden_folded.txt"));
    // Folded lines carry self time: the 79.8s root folds down to its
    // 1.0s of uncovered time (in µs).
    assert!(out.contains("ablation;workflow:wf-0 1000000\n"), "{out}");
}

/// A filter hands `folded` a slice whose ids are no longer its
/// positions: stacks end at the nearest ancestor that did not match, and
/// only matched children are taken off a span's self time.
#[test]
fn folded_folds_a_filtered_slice() {
    assert_eq!(
        obsq(&["folded", "--category", "compute"]),
        "ablation;run:task-0 4600000\n\
         serverless;exec:matmul 2000000\n\
         serverless;exec:reduce 20000000\n"
    );
    // `cold-wait` (id 3) sits at slot 1 of the two matched spans, where
    // its parent's id points: it must find `invoke:matmul` and not itself.
    assert_eq!(
        obsq(&["folded", "--component", "knative"]),
        "serverless;invoke:matmul 2000000\n\
         serverless;invoke:matmul;cold-wait 8000000\n"
    );
}

#[test]
fn filters_and_errors_behave() {
    // --label restricts to one group.
    let out = obsq(&["summary", "--label", "serverless"]);
    assert!(out.starts_with("serverless: 5 spans"), "{out}");
    assert!(!out.contains("ablation"), "{out}");

    // --category + --min-s compose.
    let out = obsq(&["spans", "--category", "compute", "--min-s", "5.0"]);
    assert!(out.contains("exec:reduce"), "{out}");
    assert!(!out.contains("exec:matmul"), "{out}");

    // Unknown label / bad category fail loudly.
    for bad in [
        &["summary", "--label", "nope"][..],
        &["spans", "--category", "nope"][..],
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_obsq"));
        cmd.arg(bad[0]).arg(fixture("spans.json")).args(&bad[1..]);
        let out = cmd.output().expect("spawn obsq");
        assert!(!out.status.success(), "obsq {bad:?} should fail");
    }
}
