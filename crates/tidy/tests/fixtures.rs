//! End-to-end fixture tests: every rule exercised against checked-in
//! fixture files (positive hit, waiver, baseline suppression, `--bless`).
//!
//! The `.rs` files under `tests/fixtures/` are linter *inputs*, not
//! compiled code; cargo only builds top-level files in `tests/`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use swf_tidy::rules::{self, scan_file};
use swf_tidy::{bless, run_check, Config, ScanOptions};

fn scan_fixture(source: &str) -> rules::FileScan {
    scan_file("fixture.rs", source, ScanOptions::default())
}

/// The (rule, line) pairs of a scan, for exact assertions.
fn hits(scan: &rules::FileScan) -> BTreeSet<(&'static str, u32)> {
    scan.violations.iter().map(|v| (v.rule, v.line)).collect()
}

fn fixture_root(name: &str) -> Config {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    Config {
        root,
        sim_crates: vec!["sim".into()],
        baseline: "tidy.baseline".into(),
        rng_exempt: Vec::new(),
        check_structure: false,
        arith_paths: Vec::new(),
        metrics_registry: None,
        layers: Vec::new(),
    }
}

#[test]
fn d1_flags_every_real_time_form() {
    let scan = scan_fixture(include_str!("fixtures/d1_real_time.rs"));
    let hits = hits(&scan);
    // Imports: the braced sync import and the plain Instant import.
    assert!(hits.contains(&(rules::REAL_SYNC, 3)), "{hits:?}");
    assert!(hits.contains(&(rules::WALL_CLOCK, 4)), "{hits:?}");
    // Uses: Instant::now, SystemTime::now, thread::spawn/sleep, RwLock.
    assert!(hits.contains(&(rules::WALL_CLOCK, 7)), "{hits:?}");
    assert!(hits.contains(&(rules::WALL_CLOCK, 8)), "{hits:?}");
    assert!(hits.contains(&(rules::REAL_THREAD, 13)), "{hits:?}");
    assert!(hits.contains(&(rules::REAL_THREAD, 14)), "{hits:?}");
    assert!(hits.contains(&(rules::REAL_SYNC, 19)), "{hits:?}");
}

#[test]
fn d2_flags_hash_iteration_but_not_keyed_or_btree_access() {
    let scan = scan_fixture(include_str!("fixtures/d2_map_iter.rs"));
    let hits = hits(&scan);
    let map_iter_lines: BTreeSet<u32> = hits
        .iter()
        .filter(|(r, _)| *r == rules::MAP_ITER)
        .map(|&(_, l)| l)
        .collect();
    // for-loop, .values(), .keys(), HashSet .iter() — and nothing else:
    // the keyed lookup and the BTreeMap iteration stay clean.
    assert_eq!(map_iter_lines, BTreeSet::from([14, 21, 25, 29]), "{hits:?}");
    assert_eq!(hits.len(), 4, "only map-iter findings expected: {hits:?}");
}

#[test]
fn d2_waiver_needs_a_reason() {
    let scan = scan_fixture(include_str!("fixtures/d2_waiver.rs"));
    let hits = hits(&scan);
    // Justified waiver suppresses; bare waiver is itself flagged; the
    // unwaived site still fires.
    assert_eq!(
        hits,
        BTreeSet::from([(rules::WAIVER_REASON, 12), (rules::MAP_ITER, 17)]),
        "{hits:?}"
    );
}

#[test]
fn d3_flags_ambient_randomness_only() {
    let scan = scan_fixture(include_str!("fixtures/d3_ambient_rng.rs"));
    let hits = hits(&scan);
    let rng_lines: BTreeSet<u32> = hits
        .iter()
        .filter(|(r, _)| *r == rules::AMBIENT_RNG)
        .map(|&(_, l)| l)
        .collect();
    assert_eq!(rng_lines, BTreeSet::from([4, 9, 13]), "{hits:?}");
    // The seeded DetRng path is clean.
    assert_eq!(hits.len(), 3, "{hits:?}");
}

#[test]
fn d3_exemption_skips_the_rng_implementation_itself() {
    let scan = scan_file(
        "fixture.rs",
        include_str!("fixtures/d3_ambient_rng.rs"),
        ScanOptions {
            check_ambient_rng: false,
            ..ScanOptions::default()
        },
    );
    assert!(scan.violations.is_empty());
}

#[test]
fn a_rules_flag_live_guards_across_awaits_only() {
    let scan = scan_fixture(include_str!("fixtures/a_await_borrow.rs"));
    let hits = hits(&scan);
    // The named guard and the same-statement temporary fire; the dropped,
    // scoped, value-extracted, and waived forms stay clean.
    assert_eq!(
        hits,
        BTreeSet::from([(rules::AWAIT_BORROW, 8), (rules::AWAIT_BORROW, 13)]),
        "{hits:?}"
    );
}

#[test]
fn d4_flags_partial_cmp_sorts_and_hash_ordered_float_reductions() {
    let scan = scan_fixture(include_str!("fixtures/d4_float.rs"));
    let hits = hits(&scan);
    assert!(hits.contains(&(rules::PARTIAL_CMP_SORT, 12)), "{hits:?}");
    assert!(hits.contains(&(rules::FLOAT_ACCUM, 21)), "{hits:?}");
    assert!(hits.contains(&(rules::FLOAT_ACCUM, 27)), "{hits:?}");
    // The BTreeMap reduction is clean under D4.
    let d4: Vec<_> = hits
        .iter()
        .filter(|(r, _)| *r == rules::FLOAT_ACCUM || *r == rules::PARTIAL_CMP_SORT)
        .collect();
    assert_eq!(d4.len(), 3, "{hits:?}");
}

#[test]
fn c_rules_flag_truncation_and_unchecked_size_arithmetic_when_gated_in() {
    let scan = scan_file(
        "crates/sim/src/codec.rs",
        include_str!("fixtures/c_arith.rs"),
        ScanOptions {
            check_arith: true,
            ..ScanOptions::default()
        },
    );
    let hits = hits(&scan);
    assert_eq!(
        hits,
        BTreeSet::from([(rules::TRUNC_CAST, 6), (rules::UNCHECKED_ARITH, 10)]),
        "{hits:?}"
    );
    // Outside the gated paths the C-rules do not apply at all.
    let ungated = scan_fixture(include_str!("fixtures/c_arith.rs"));
    assert!(ungated.violations.is_empty(), "{:?}", ungated.violations);
}

#[test]
fn metric_registry_round_trip_flags_unknown_dead_and_unprefixed_names() {
    let mut config = fixture_root("miniroot_metrics");
    config.metrics_registry = Some("metrics.registry".into());
    let report = run_check(&config).unwrap();
    let hits: Vec<(&str, &str, u32)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![
            (rules::METRIC_UNKNOWN, "crates/sim/src/lib.rs", 5),
            (rules::METRIC_PREFIX, "crates/sim/src/lib.rs", 6),
            (rules::METRIC_DEAD, "metrics.registry", 3),
        ],
        "{:?}",
        report.violations
    );
}

#[test]
fn layering_flags_the_upward_edge_only() {
    let mut config = fixture_root("miniroot_layers");
    config.sim_crates = vec!["low".into(), "high".into()];
    config.layers = vec![vec!["low".into()], vec!["high".into()]];
    let report = run_check(&config).unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    let v = &report.violations[0];
    assert_eq!(v.rule, rules::LAYERING);
    assert_eq!(v.file, "crates/low/src/lib.rs");
    assert_eq!(v.line, 4);
    assert!(v.message.contains("strictly downward"), "{}", v.message);
}

#[test]
fn r1_counts_non_test_sites_only() {
    let scan = scan_fixture(include_str!("fixtures/r1_unwraps.rs"));
    assert!(scan.violations.is_empty(), "{:?}", scan.violations);
    // unwrap + expect + panic!; the test-module sites and the domain
    // `self.expect` are exempt.
    assert_eq!(scan.unwrap_lines, vec![5, 6, 8]);
    assert_eq!(scan.unwrap_count, 3);
}

#[test]
fn clean_fixture_is_clean() {
    let scan = scan_fixture(include_str!("fixtures/clean.rs"));
    assert!(scan.violations.is_empty(), "{:?}", scan.violations);
    assert_eq!(scan.unwrap_count, 0);
}

#[test]
fn baseline_suppresses_known_debt() {
    let report = run_check(&fixture_root("miniroot")).unwrap();
    assert!(report.ok(), "{:?}", report.violations);
    assert_eq!(report.files_scanned, 1);
    assert_eq!(report.unwrap_total, 2);
}

#[test]
fn exceeding_the_baseline_fails_with_a_pointed_diagnostic() {
    let mut config = fixture_root("miniroot");
    config.baseline = "tight.baseline".into();
    let report = run_check(&config).unwrap();
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert_eq!(v.rule, rules::UNWRAP);
    assert_eq!(v.file, "crates/sim/src/lib.rs");
    assert!(v.message.contains("2 panic-family sites"), "{}", v.message);
    assert!(v.message.contains("allows 1"), "{}", v.message);
}

#[test]
fn shrinking_below_the_baseline_demands_a_ratchet() {
    let mut config = fixture_root("miniroot");
    config.baseline = "loose.baseline".into();
    let report = run_check(&config).unwrap();
    assert_eq!(report.violations.len(), 1);
    assert!(
        report.violations[0].message.contains("--bless"),
        "{}",
        report.violations[0].message
    );
}

#[test]
fn stale_baseline_entries_are_reported() {
    let mut config = fixture_root("miniroot");
    config.baseline = "stale.baseline".into();
    let report = run_check(&config).unwrap();
    assert_eq!(report.violations.len(), 1);
    let v = &report.violations[0];
    assert_eq!(v.file, "crates/sim/src/deleted.rs");
    assert!(v.message.contains("stale"), "{}", v.message);
}

#[test]
fn structural_rule_covers_crate_docs() {
    let mut config = fixture_root("miniroot_bad_structure");
    config.check_structure = true;
    let report = run_check(&config).unwrap();
    let per_rule = |rule: &str| report.violations.iter().filter(|v| v.rule == rule).count();
    // Missing crate docs + missing missing_docs gate.
    assert_eq!(per_rule(rules::CRATE_DOCS), 2, "{:?}", report.violations);
}

#[test]
fn bless_writes_a_baseline_that_makes_the_check_pass() {
    // Copy the miniroot into a scratch dir so blessing never mutates the
    // checked-in fixtures.
    let scratch = std::env::temp_dir().join(format!("swf-tidy-bless-{}", std::process::id()));
    let src_dir = scratch.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::write(scratch.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(
        src_dir.join("lib.rs"),
        include_str!("fixtures/miniroot/crates/sim/src/lib.rs"),
    )
    .unwrap();
    let config = Config {
        root: scratch.clone(),
        sim_crates: vec!["sim".into()],
        baseline: "tidy.baseline".into(),
        rng_exempt: Vec::new(),
        check_structure: false,
        arith_paths: Vec::new(),
        metrics_registry: None,
        layers: Vec::new(),
    };

    // No baseline yet: the two sites overshoot the implicit zero.
    let before = run_check(&config).unwrap();
    assert!(!before.ok());

    let content = bless(&config).unwrap();
    assert!(content.contains("2 crates/sim/src/lib.rs"), "{content}");

    let after = run_check(&config).unwrap();
    assert!(after.ok(), "{:?}", after.violations);

    std::fs::remove_dir_all(&scratch).unwrap();
}
