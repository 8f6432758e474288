//! Property tests for the cluster fabric and filesystems: transfer-time
//! monotonicity, byte accounting, and shared-fs roundtrip integrity.

use bytes::Bytes;
use proptest::prelude::*;

use swf_cluster::{Cluster, ClusterConfig, Network, NodeId};
use swf_simcore::Sim;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transfer time is monotone in payload size on an idle fabric.
    #[test]
    fn transfer_time_monotone_in_size(a in 0u64..10_000_000, b in 0u64..10_000_000) {
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let sim = Sim::new();
        sim.block_on(async move {
            let n = Network::new(2);
            let t_small = n.transfer(NodeId(0), NodeId(1), small).await.unwrap();
            let t_large = n.transfer(NodeId(0), NodeId(1), large).await.unwrap();
            prop_assert!(t_large >= t_small, "{t_large} < {t_small}");
            Ok(())
        })?;
    }

    /// The fabric accounts every byte of every transfer exactly once.
    #[test]
    fn bytes_moved_accounting(
        transfers in proptest::collection::vec((0usize..3, 0usize..3, 0u64..1_000_000), 1..15),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let n = Network::new(3);
            let mut total = 0u64;
            for (from, to, bytes) in transfers.iter().copied() {
                n.transfer(NodeId(from), NodeId(to), bytes).await.unwrap();
                total += bytes;
            }
            prop_assert_eq!(n.bytes_moved(), total);
            prop_assert_eq!(n.transfers(), transfers.len() as u64);
            Ok(())
        })?;
    }

    /// Loopback is always at least as fast as a remote hop of equal size.
    #[test]
    fn loopback_never_slower(bytes in 0u64..50_000_000) {
        let sim = Sim::new();
        sim.block_on(async move {
            let n = Network::new(2);
            let local = n.transfer(NodeId(0), NodeId(0), bytes).await.unwrap();
            let remote = n.transfer(NodeId(0), NodeId(1), bytes).await.unwrap();
            prop_assert!(local <= remote, "loopback {local} > remote {remote}");
            Ok(())
        })?;
    }

    /// Shared-fs writes from any worker roundtrip byte-identically, and
    /// file metadata stays consistent under arbitrary write sequences.
    #[test]
    fn shared_fs_roundtrips(
        files in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..2048), 1usize..4),
            1..10,
        ),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(&ClusterConfig::default());
            let mut expected_total = 0u64;
            for (i, (content, node)) in files.iter().enumerate() {
                let name = format!("f{i}");
                expected_total += content.len() as u64;
                cluster
                    .shared_write_from(NodeId(*node), &name, Bytes::from(content.clone()))
                    .await
                    .unwrap();
            }
            for (i, (content, node)) in files.iter().enumerate() {
                let name = format!("f{i}");
                let read_back = cluster
                    .shared_read_from(NodeId(*node), &name)
                    .await
                    .unwrap();
                prop_assert_eq!(&read_back[..], &content[..]);
                prop_assert_eq!(cluster.shared_fs().size(&name), Some(content.len() as u64));
            }
            let shared = cluster.shared_fs();
            let stored = shared.list();
            let stored_total: u64 = stored.iter().filter_map(|p| shared.size(p)).sum();
            prop_assert_eq!(stored.len(), files.len());
            prop_assert_eq!(stored_total, expected_total);
            Ok(())
        })?;
    }
}
