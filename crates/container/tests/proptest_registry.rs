//! Property tests for the registry and container runtime: byte
//! conservation, cache monotonicity, and lifecycle accounting under
//! arbitrary pull/run sequences.

use proptest::prelude::*;

use swf_cluster::{mib, Node, NodeId, NodeSpec};
use swf_container::{
    overhead, ContainerRuntime, DockerCli, Image, ImageRef, Layer, LayerId, PullPolicy, Registry,
    ResourceLimits, Workload,
};
use swf_simcore::{secs, Sim};

fn registry_with_images(n_images: usize) -> (Registry, Vec<ImageRef>) {
    let registry = Registry::default();
    let refs: Vec<ImageRef> = (0..n_images)
        .map(|i| {
            let r = ImageRef::parse(&format!("img{i}"));
            registry.push(Image::python_scientific(r.clone(), i as u64));
            r
        })
        .collect();
    (registry, refs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bytes served by the registry equal the sum of bytes pulled across
    /// all pulls, and re-pulling a cached image transfers nothing.
    #[test]
    fn registry_conserves_bytes(
        pulls in proptest::collection::vec((0usize..3, 0usize..4), 1..20),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let (registry, refs) = registry_with_images(3);
            let mut total = 0u64;
            for (img, node) in pulls {
                let stats = registry
                    .pull(NodeId(node), &refs[img])
                    .await
                    .expect("image exists");
                total += stats.bytes_pulled;
                // After a pull the image is always fully cached there.
                prop_assert!(registry.is_cached(NodeId(node), &refs[img]));
                // Immediate re-pull is free.
                let again = registry.pull(NodeId(node), &refs[img]).await.unwrap();
                prop_assert_eq!(again.bytes_pulled, 0);
                prop_assert_eq!(again.layers_pulled, 0);
            }
            prop_assert_eq!(registry.bytes_served(), total);
            Ok(())
        })?;
    }

    /// A node never stores more unique layer bytes than the distinct
    /// layers of all images (dedup works), and eviction restores pull cost.
    #[test]
    fn evict_then_pull_is_never_cheaper_than_cached(
        seq in proptest::collection::vec(0usize..3, 1..10),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let (registry, refs) = registry_with_images(3);
            let node = NodeId(1);
            for &i in &seq {
                registry.pull(node, &refs[i]).await.unwrap();
            }
            for &i in &seq {
                prop_assert!(registry.is_cached(node, &refs[i]));
            }
            // Evict one image: a fresh pull must transfer at least its
            // unshared layer bytes (> 0 for distinct-seed app layers).
            registry.evict(node, &refs[seq[0]]);
            prop_assert!(!registry.is_cached(node, &refs[seq[0]]));
            let stats = registry.pull(node, &refs[seq[0]]).await.unwrap();
            prop_assert!(stats.bytes_pulled > 0);
            Ok(())
        })?;
    }

    /// Arbitrary docker-run sequences leave the runtime clean: zero live
    /// containers, created == removed, and full node memory restored.
    #[test]
    fn docker_runs_always_clean_up(
        runs in proptest::collection::vec(1u64..400, 1..12),
    ) {
        let sim = Sim::new();
        sim.block_on(async move {
            let node = Node::new(NodeId(2), NodeSpec::default());
            let registry = Registry::default();
            let image = ImageRef::parse("m");
            registry.push(Image {
                reference: image.clone(),
                layers: vec![Layer { id: LayerId(9), size: mib(64) }],
            });
            let runtime = ContainerRuntime::new(node.clone(), registry);
            let cli = DockerCli::new(runtime.clone());
            for ms in runs.iter().copied() {
                cli.run(
                    &image,
                    ResourceLimits::one_core(128),
                    Workload::synthetic(secs(ms as f64 / 1000.0)),
                    PullPolicy::IfNotPresent,
                )
                .await
                .unwrap();
            }
            prop_assert_eq!(runtime.created_total(), runs.len() as u64);
            prop_assert_eq!(runtime.removed_total(), runs.len() as u64);
            prop_assert_eq!(runtime.execs_total(), runs.len() as u64);
            prop_assert_eq!(node.memory().used(), 0);
            Ok(())
        })?;
    }

    /// Total docker-run time is at least lifecycle + compute for every
    /// task, and exactly that when runs are sequential and cached.
    #[test]
    fn docker_run_time_lower_bound(n in 1usize..8, compute_ms in 1u64..300) {
        let sim = Sim::new();
        sim.block_on(async move {
            let node = Node::new(NodeId(0), NodeSpec::default());
            let registry = Registry::default();
            let image = ImageRef::parse("m");
            registry.push(Image {
                reference: image.clone(),
                layers: vec![Layer { id: LayerId(4), size: mib(16) }],
            });
            let runtime = ContainerRuntime::new(node, registry);
            runtime.ensure_image(&image).await.unwrap();
            let cli = DockerCli::new(runtime);
            let t0 = swf_simcore::now();
            for _ in 0..n {
                cli.run(
                    &image,
                    ResourceLimits::one_core(64),
                    Workload::synthetic(swf_simcore::SimDuration::from_millis(compute_ms)),
                    PullPolicy::Never,
                )
                .await
                .unwrap();
            }
            let elapsed = (swf_simcore::now() - t0).as_secs_f64();
            let expected = n as f64
                * ((overhead::CREATE + overhead::START + overhead::STOP + overhead::REMOVE).as_secs_f64()
                    + compute_ms as f64 / 1000.0);
            prop_assert!((elapsed - expected).abs() < 1e-9, "{elapsed} vs {expected}");
            Ok(())
        })?;
    }
}
