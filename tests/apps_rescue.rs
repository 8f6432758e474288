//! Dynamic expansion composes with rescue DAGs: a fault injected into one
//! expanded node halts its round, the rescue DAG salvages the completed
//! expanded nodes, and resumption re-executes only the failed node — the
//! final output is bitwise equal to a clean run.

use std::cell::Cell;
use std::rc::Rc;

use swf_apps::{run_app, run_app_with, AppKind, AppRun};
use swf_pegasus::Transformation;
use swf_workloads::ExecEnv;

/// Wrap the named transformation so its first invocation fails; later
/// invocations delegate to the real kernel. Returns the invocation
/// counter.
fn inject_first_invocation_fault(
    spec: &mut swf_apps::AppSpec,
    name: &str,
    counter: Rc<Cell<usize>>,
) {
    let idx = spec
        .transformations
        .iter()
        .position(|t| t.name == name)
        .unwrap_or_else(|| panic!("no transformation {name}"));
    let old = &spec.transformations[idx];
    let old_logic = old.logic.clone();
    let mut wrapped = Transformation::new(name, old.compute, move |inputs| {
        let n = counter.get() + 1;
        counter.set(n);
        if n == 1 {
            return Err("injected fault: first invocation".into());
        }
        old_logic(inputs)
    });
    if let Some(image) = old.container_image.clone() {
        wrapped = wrapped.with_container(image);
    }
    spec.transformations[idx] = wrapped;
}

#[test]
fn chaos_interrupted_dynamic_workflow_resumes_without_reexecution() {
    let clean = run_app(&AppRun::quick(AppKind::Finra, ExecEnv::Native)).unwrap();
    assert_eq!(clean.report.nodes_salvaged, 0);

    let counter = Rc::new(Cell::new(0usize));
    let in_closure = counter.clone();
    let faulted = run_app_with(
        &AppRun {
            rescue: true,
            max_rescue_rounds: 2,
            ..AppRun::quick(AppKind::Finra, ExecEnv::Native)
        },
        move |spec| inject_first_invocation_fault(spec, "finra-validate", in_closure),
    )
    .unwrap();

    // Quick FINRA expands to 5 validators; the first invocation failed and
    // was re-executed once on resumption. Zero re-execution of the
    // completed nodes means exactly 5 + 1 invocations.
    assert_eq!(counter.get(), 6, "only the failed node may re-execute");
    // The four validators that completed before the halt were salvaged
    // from the persisted rescue DAG.
    assert_eq!(faulted.report.nodes_salvaged, 4);
    let validate_round = &faulted.report.rounds[1];
    assert_eq!(validate_round.rescue_rounds, 1);
    assert_eq!(validate_round.jobs, 5);

    // Despite the fault, the final report is bitwise equal to a clean run
    // and the expanded DAG shape is unchanged.
    assert_eq!(faulted.output, clean.output);
    assert_eq!(
        faulted.report.shape_fingerprint(),
        clean.report.shape_fingerprint()
    );
    // The rescue wait is visible in the makespan.
    assert!(faulted.report.makespan > clean.report.makespan);
}

#[test]
fn unrescued_fault_fails_the_run_with_the_failed_node() {
    let counter = Rc::new(Cell::new(0usize));
    let in_closure = counter.clone();
    let result = run_app_with(
        &AppRun::quick(AppKind::Finra, ExecEnv::Native),
        move |spec| inject_first_invocation_fault(spec, "finra-validate", in_closure),
    );
    let err = match result {
        Ok(_) => panic!("run without rescue must fail"),
        Err(e) => e,
    };
    assert!(err.contains("halted") || err.contains("failed"), "{err}");
}

#[test]
fn rescue_also_composes_with_mapreduce_expansion() {
    let clean = run_app(&AppRun::quick(AppKind::WordCount, ExecEnv::Native)).unwrap();
    let counter = Rc::new(Cell::new(0usize));
    let in_closure = counter.clone();
    let faulted = run_app_with(
        &AppRun {
            rescue: true,
            max_rescue_rounds: 2,
            ..AppRun::quick(AppKind::WordCount, ExecEnv::Native)
        },
        move |spec| inject_first_invocation_fault(spec, "wc-map", in_closure),
    )
    .unwrap();
    // 4 mappers, one retried after the rescue resumption.
    assert_eq!(counter.get(), 5);
    assert_eq!(faulted.report.nodes_salvaged, 3);
    assert_eq!(faulted.output, clean.output);
}
