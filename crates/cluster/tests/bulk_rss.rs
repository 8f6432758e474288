//! Regression guard for the image tarball's data path: a 450 MiB
//! `zeroed_bytes` buffer is staged, fetched over the fabric and written to
//! a node's disk without one of its pages being touched, so the process
//! does not grow by its size.
//!
//! The pool's first growth is `vec![0u8; n]` as it came from `calloc` — a
//! lazily zeroed mapping — moved behind `Bytes`' reference count. A copy
//! anywhere on the path (`Bytes::from(Vec<u8>)` used to make one) writes
//! all 450 MiB and fails here, not only in the benchmark's `peak_rss_mb`.
//!
//! This file holds one test so that it has a process, and so a `VmRSS`,
//! of its own.
#![cfg(target_os = "linux")]

use swf_cluster::{zeroed_bytes, Cluster, ClusterConfig};
use swf_simcore::Sim;

/// The paper's image tarball, and how far staging and moving it may grow
/// the process.
const TARBALL_LEN: usize = 450 << 20;
const MAY_GROW: usize = 16 << 20;

/// Resident set size of this process in bytes (`VmRSS` of `/proc/self/status`).
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse::<usize>().ok())
        .expect("VmRSS line in kB");
    kib * 1024
}

#[test]
fn staging_and_moving_the_tarball_touches_none_of_its_pages() {
    let before = vm_rss();
    let sim = Sim::new();
    sim.block_on(async {
        let cluster = Cluster::new(&ClusterConfig::default());
        let worker = &cluster.worker_nodes()[0];
        cluster
            .shared_fs()
            .stage("images/matmul.tar", zeroed_bytes(TARBALL_LEN));
        // A worker's fetch: `SimFs::read`, then `Network::transfer`.
        let fetched = cluster
            .shared_read_from(worker.id(), "images/matmul.tar")
            .await
            .expect("staged above");
        assert_eq!(fetched.len(), TARBALL_LEN);
        worker.fs().write("sandbox/matmul.tar", fetched).await;
        // A second boot re-stages from the same pool.
        cluster
            .shared_fs()
            .stage("images/again.tar", zeroed_bytes(TARBALL_LEN));
        assert_eq!(cluster.network().bytes_moved(), TARBALL_LEN as u64);
    });
    let grown = vm_rss().saturating_sub(before);
    assert!(
        grown < MAY_GROW,
        "process grew by {} MiB moving a {} MiB tarball: something on the path copied it",
        grown >> 20,
        TARBALL_LEN >> 20
    );
}
