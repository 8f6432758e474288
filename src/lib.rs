//! # serverless-hpc-workflows
//!
//! Full Rust reproduction of *Serverless Computing for Dynamic HPC
//! Workflows* (Thurimella et al., SC 2024): integration of a Knative-style
//! serverless platform with a Pegasus-style workflow management system on
//! HTCondor and Kubernetes, evaluated with the paper's matrix-multiplication
//! workflows in a deterministic virtual-time simulation.
//!
//! This umbrella crate holds the examples and the cross-crate integration
//! tests; the code lives in the workspace's crates, imported by their own
//! names:
//!
//! - [`swf_simcore`] — deterministic virtual-time async kernel
//! - [`swf_obs`] — spans, critical paths, metrics registry, SLOs, exports
//! - [`swf_cluster`] — nodes, network, filesystems, HTTP
//! - [`swf_container`] — images, registry, runtime, `docker run`
//! - [`swf_k8s`] — API server, scheduler, kubelets, controllers
//! - [`swf_knative`] — KServices, KPA autoscaler, activator, queue-proxy
//! - [`swf_condor`] — schedd, negotiator, startds, DAGMan, rescue DAGs
//! - [`swf_pegasus`] — abstract workflows, catalogs, planner
//! - [`swf_workloads`] — real matmul kernels, codecs, workflow shapes
//! - [`swf_metrics`] — stats, regression, ternary grids, record comparison
//! - [`swf_core`] — the paper's contribution + experiment runners
//! - [`swf_chaos`] — fault plans, the injector, the chaos experiment
//! - [`swf_apps`] — four applications with runtime DAG expansion
//! - [`swf_elastic`] — spot node pools, the pool autoscaler, cost ledger
//! - `swf-bench` — the `suite` scenario table and the `chaos` sweep
//! - `swf-simref` — the frozen reference executor the differential rig
//!   compares against (a dev-dependency, never linked into a run)
