//! DESIGN.md §5 is the table of model constants. This test holds each of
//! its rows to the code: the value (converted by its unit with the same
//! constructors the code uses, then compared exactly), the file that
//! defines it, and the one-to-one match between rows and constants (no
//! row twice, no constant without a row). Several of these values are
//! hidden from every other test by `ExperimentConfig::quick()`'s overrides.

use std::collections::BTreeSet;
use swf_cluster::{gib, Rate};
use swf_container::{overhead, registry};
use swf_core::ExperimentConfig;
use swf_simcore::{micros, millis, secs, SimDuration};

const DESIGN: &str = include_str!("../DESIGN.md");

fn nanos(d: SimDuration) -> f64 {
    d.as_nanos() as f64
}

/// Every constant the table lists, by the name in its first column, in the
/// table's base units: nanoseconds, bytes, bytes per second, or the value
/// itself where the unit is a count, a ratio or a price.
fn code() -> Vec<(&'static str, f64)> {
    let p = ExperimentConfig::paper();
    let negotiator = p.condor.negotiator;
    let kpa = p.knative.autoscaler;
    vec![
        ("ClusterConfig::nodes", p.cluster.nodes as f64),
        ("NodeSpec::cores", p.cluster.node_spec.cores as f64),
        ("NodeSpec::memory", p.cluster.node_spec.memory as f64),
        ("network::BANDWIDTH", swf_cluster::network::BANDWIDTH.0),
        ("network::LATENCY", nanos(swf_cluster::network::LATENCY)),
        (
            "network::LOOPBACK_COST",
            nanos(swf_cluster::network::LOOPBACK_COST),
        ),
        (
            "disk::SSD_MB_PER_S",
            Rate::mb_per_s(swf_cluster::disk::SSD_MB_PER_S).0,
        ),
        ("disk::SSD_LATENCY", nanos(swf_cluster::disk::SSD_LATENCY)),
        ("registry::BANDWIDTH", registry::BANDWIDTH.0),
        (
            "registry::MANIFEST_LATENCY",
            nanos(registry::MANIFEST_LATENCY),
        ),
        (
            "registry::CONCURRENT_STREAMS",
            registry::CONCURRENT_STREAMS as f64,
        ),
        ("overhead::CREATE", nanos(overhead::CREATE)),
        ("overhead::START", nanos(overhead::START)),
        ("overhead::STOP", nanos(overhead::STOP)),
        ("overhead::REMOVE", nanos(overhead::REMOVE)),
        ("api::CALL_LATENCY", nanos(swf_k8s::api::CALL_LATENCY)),
        (
            "scheduler::BIND_LATENCY",
            nanos(swf_k8s::scheduler::BIND_LATENCY),
        ),
        ("AutoscalerConfig::tick", nanos(kpa.tick)),
        ("AutoscalerConfig::stable_window", nanos(kpa.stable_window)),
        ("AutoscalerConfig::panic_window", nanos(kpa.panic_window)),
        (
            "AutoscalerConfig::scale_to_zero_grace",
            nanos(kpa.scale_to_zero_grace),
        ),
        (
            "autoscaler::PANIC_THRESHOLD",
            swf_knative::autoscaler::PANIC_THRESHOLD,
        ),
        (
            "pod_server::QUEUE_PROXY_OVERHEAD",
            nanos(swf_knative::pod_server::QUEUE_PROXY_OVERHEAD),
        ),
        (
            "router::ACTIVATOR_LATENCY",
            nanos(swf_knative::router::ACTIVATOR_LATENCY),
        ),
        ("serving::APP_BOOT", nanos(swf_knative::serving::APP_BOOT)),
        (
            "KnativeConfig::invoke_retry",
            f64::from(p.knative.invoke_retry.attempts()),
        ),
        (
            "NegotiatorConfig::cycle_interval",
            nanos(negotiator.cycle_interval),
        ),
        (
            "negotiator::MATCH_LATENCY",
            nanos(swf_condor::negotiator::MATCH_LATENCY),
        ),
        (
            "NegotiatorConfig::cycle_jitter_cv",
            negotiator.cycle_jitter_cv,
        ),
        (
            "NegotiatorConfig::activation_delay",
            nanos(negotiator.activation_delay),
        ),
        (
            "NegotiatorConfig::activation_jitter_cv",
            negotiator.activation_jitter_cv,
        ),
        (
            "StartdConfig::job_start_overhead",
            nanos(p.condor.startd.job_start_overhead),
        ),
        ("DagmanConfig::poll_interval", nanos(p.dagman.poll_interval)),
        ("DagmanConfig::poll_jitter_cv", p.dagman.poll_jitter_cv),
        ("ComputeModel::per_task", nanos(p.compute.per_task)),
        ("ExperimentConfig::matrix_dim", p.matrix_dim as f64),
        (
            "ExperimentConfig::container_concurrency",
            f64::from(p.container_concurrency),
        ),
        ("ExperimentConfig::min_scale", f64::from(p.min_scale)),
        ("ExperimentConfig::serialization_rate", p.serialization_rate),
        (
            "cost::ON_DEMAND_PER_NODE_H",
            swf_elastic::cost::ON_DEMAND_PER_NODE_H,
        ),
        ("cost::SPOT_PER_NODE_H", swf_elastic::cost::SPOT_PER_NODE_H),
    ]
}

/// One table row: constant, value, unit, source, file.
struct Row<'a> {
    name: &'a str,
    value: &'a str,
    unit: &'a str,
    file: &'a str,
}

fn rows() -> Vec<Row<'static>> {
    let start = DESIGN.find("## 5. ").expect("DESIGN.md has a section 5");
    let end = start + DESIGN[start..].find("\n## 6. ").expect("and a section 6");
    DESIGN[start..end]
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line
                .trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().trim_matches('`'))
                .collect();
            assert_eq!(cells.len(), 5, "row {line:?} needs five cells");
            Row {
                name: cells[0],
                value: cells[1],
                unit: cells[2],
                file: cells[4],
            }
        })
        .collect()
}

/// A row's value in the table's base units, built with the constructor the
/// code uses for that unit, so an exact comparison is fair.
fn base_value(row: &Row) -> f64 {
    let v: f64 = row
        .value
        .parse()
        .unwrap_or_else(|e| panic!("{}: value {:?}: {e}", row.name, row.value));
    let whole = || {
        assert_eq!(v.fract(), 0.0, "{}: {} is not whole", row.name, row.value);
        v as u64
    };
    match row.unit {
        "s" => nanos(secs(v)),
        "ms" => nanos(millis(whole())),
        "µs" => nanos(micros(whole())),
        "MB/s" => Rate::mb_per_s(v).0,
        "Gbit/s" => Rate::gbit_per_s(v).0,
        "GiB" => gib(whole()) as f64,
        "VMs" | "cores" | "streams" | "attempts" | "rows" | "requests" | "pods" | "× capacity"
        | "cv" | "$/node-h" => v,
        other => panic!("{}: unknown unit {other:?}", row.name),
    }
}

#[test]
fn design_section_5_matches_the_code() {
    let code = code();
    let rows = rows();
    let row_names: BTreeSet<&str> = rows.iter().map(|row| row.name).collect();
    assert_eq!(row_names.len(), rows.len(), "a constant has two rows");
    let code_names: BTreeSet<&str> = code.iter().map(|(name, _)| *name).collect();
    assert_eq!(code_names.len(), code.len(), "a constant is listed twice");
    assert_eq!(row_names, code_names, "one row per constant");
    for row in &rows {
        let (_, actual) = code
            .iter()
            .find(|(name, _)| *name == row.name)
            .unwrap_or_else(|| panic!("row {} names no constant the test knows", row.name));
        assert_eq!(
            base_value(row).to_bits(),
            actual.to_bits(),
            "{}: table says {} {}, code has {actual} (base units)",
            row.name,
            row.value,
            row.unit
        );
    }
}

/// Whether `source` defines `name`: a `Type::field` row needs `pub field:`
/// inside the body of `pub struct Type`, and a `module::CONST` row needs a
/// file named after the module holding `pub const CONST:`.
fn defines(file: &str, source: &str, name: &str) -> bool {
    let (owner, ident) = name.split_once("::").expect("a `Owner::item` name");
    if owner.starts_with(char::is_uppercase) {
        let Some(start) = source.find(&format!("pub struct {owner} {{")) else {
            return false;
        };
        let body = &source[start..];
        let body = &body[..body.find("\n}").unwrap_or(body.len())];
        body.contains(&format!("pub {ident}:"))
    } else {
        file.ends_with(&format!("/{owner}.rs")) && source.contains(&format!("pub const {ident}:"))
    }
}

#[test]
fn design_section_5_names_the_defining_file() {
    for row in rows() {
        let path = format!("{}/{}", env!("CARGO_MANIFEST_DIR"), row.file);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {}: {e}", row.name, row.file));
        assert!(
            defines(row.file, &source, row.name),
            "{}: {} does not define it",
            row.name,
            row.file
        );
    }
}
