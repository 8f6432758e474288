//! Image registry (DockerHub stand-in) and per-node layer caches.
//!
//! A pull resolves the manifest, skips locally cached layers, and streams
//! the rest through the registry's limited egress — so concurrent pulls from
//! many nodes contend, which is what makes per-task container distribution
//! expensive in the Fig. 2 HTCondor-container path.

#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use swf_simcore::{secs, Resource, SimDuration};

use swf_cluster::{NodeId, Rate};

use crate::error::ContainerError;
use crate::image::{Image, ImageRef, LayerId};

/// Registry service parameters.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Egress bandwidth shared across all concurrent pulls.
    pub bandwidth: Rate,
    /// Per-pull control-plane latency (manifest resolution, auth).
    pub manifest_latency: SimDuration,
    /// Maximum concurrent layer streams served.
    pub concurrent_streams: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            bandwidth: Rate::mb_per_s(120.0),
            manifest_latency: SimDuration::from_millis(120),
            concurrent_streams: 4,
        }
    }
}

/// Outcome of a pull.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PullStats {
    /// Layers actually transferred.
    pub layers_pulled: usize,
    /// Layers found in the node cache.
    pub layers_cached: usize,
    /// Bytes transferred.
    pub bytes_pulled: u64,
}

struct State {
    images: BTreeMap<ImageRef, Image>,
    node_caches: BTreeMap<NodeId, BTreeSet<LayerId>>,
    bytes_served: u64,
    /// Bytes streamed to each node — the conservation ledger: the sum over
    /// nodes always equals `bytes_served` (nothing is lost or
    /// double-counted, even under fault-injected outages).
    bytes_by_node: BTreeMap<NodeId, u64>,
    /// Fault injection: while set, pulls fail after manifest resolution.
    outage: bool,
    /// Pulls refused because of an outage.
    failed_pulls: u64,
}

/// The registry.
#[derive(Clone)]
pub struct Registry {
    config: RegistryConfig,
    egress: Resource,
    state: Rc<RefCell<State>>,
}

impl Registry {
    /// Empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        Registry {
            egress: Resource::new("registry-egress", config.concurrent_streams),
            config,
            state: Rc::new(RefCell::new(State {
                images: BTreeMap::new(),
                node_caches: BTreeMap::new(),
                bytes_served: 0,
                bytes_by_node: BTreeMap::new(),
                outage: false,
                failed_pulls: 0,
            })),
        }
    }

    /// Publish an image manifest.
    pub fn push(&self, image: Image) {
        self.state
            .borrow_mut()
            .images
            .insert(image.reference.clone(), image);
    }

    /// Look up a manifest.
    pub fn manifest(&self, reference: &ImageRef) -> Result<Image, ContainerError> {
        self.state
            .borrow()
            .images
            .get(reference)
            .cloned()
            .ok_or_else(|| ContainerError::ImageNotFound(reference.to_string()))
    }

    /// Does `node` hold every layer of `reference`?
    pub fn is_cached(&self, node: NodeId, reference: &ImageRef) -> bool {
        let s = self.state.borrow();
        let Some(img) = s.images.get(reference) else {
            return false;
        };
        let Some(cache) = s.node_caches.get(&node) else {
            return false;
        };
        img.layers.iter().all(|l| cache.contains(&l.id))
    }

    /// Pull `reference` onto `node`, charging virtual time for the layers
    /// that are not cached there yet. Returns pull statistics.
    pub async fn pull(
        &self,
        node: NodeId,
        reference: &ImageRef,
    ) -> Result<PullStats, ContainerError> {
        let image = self.manifest(reference)?;
        // Manifest resolution round trip.
        swf_simcore::sleep(self.config.manifest_latency).await;
        // A fault-injected outage refuses the pull after the manifest round
        // trip (the client paid the connection attempt), before any bytes
        // move — the conservation ledger stays balanced.
        if self.state.borrow().outage {
            self.state.borrow_mut().failed_pulls += 1;
            return Err(ContainerError::RegistryUnavailable(format!(
                "pull of {reference} from {node} refused: registry outage"
            )));
        }
        let missing: Vec<_> = {
            let s = self.state.borrow();
            let cache = s.node_caches.get(&node);
            image
                .layers
                .iter()
                .filter(|l| cache.is_none_or(|c| !c.contains(&l.id)))
                .copied()
                .collect()
        };
        let cached = image.layers.len() - missing.len();
        let mut bytes = 0;
        for layer in &missing {
            let stream_time = secs(self.config.bandwidth.time_for(layer.size));
            self.egress.serve(stream_time).await;
            bytes += layer.size;
            // Layer lands in the cache as soon as its stream completes.
            self.state
                .borrow_mut()
                .node_caches
                .entry(node)
                .or_default()
                .insert(layer.id);
        }
        let mut s = self.state.borrow_mut();
        s.bytes_served += bytes;
        *s.bytes_by_node.entry(node).or_default() += bytes;
        Ok(PullStats {
            layers_pulled: missing.len(),
            layers_cached: cached,
            bytes_pulled: bytes,
        })
    }

    /// Mark every layer of `reference` as present on `node` without any
    /// transfer — the `docker load` path, used when an image tarball was
    /// shipped to the node by other means (e.g. Pegasus file transfer).
    pub fn mark_cached(&self, node: NodeId, reference: &ImageRef) -> Result<(), ContainerError> {
        let image = self.manifest(reference)?;
        let mut s = self.state.borrow_mut();
        let cache = s.node_caches.entry(node).or_default();
        for l in &image.layers {
            cache.insert(l.id);
        }
        Ok(())
    }

    /// Drop `node`'s cached copy of an image's layers (e.g. image GC).
    /// Layers shared with other cached images are removed as well — the
    /// model keeps no refcounts, matching kubelet's coarse image GC.
    pub fn evict(&self, node: NodeId, reference: &ImageRef) {
        let mut s = self.state.borrow_mut();
        let Some(img) = s.images.get(reference).cloned() else {
            return;
        };
        if let Some(cache) = s.node_caches.get_mut(&node) {
            for l in &img.layers {
                cache.remove(&l.id);
            }
        }
    }

    /// Total bytes streamed.
    pub fn bytes_served(&self) -> u64 {
        self.state.borrow().bytes_served
    }

    /// Fault injection: start or end a registry outage. While on, every
    /// pull fails with [`ContainerError::RegistryUnavailable`] after the
    /// manifest round trip; cached layers remain usable.
    pub fn set_outage(&self, on: bool) {
        self.state.borrow_mut().outage = on;
    }

    /// Is the registry currently refusing pulls?
    pub fn is_under_outage(&self) -> bool {
        self.state.borrow().outage
    }

    /// Pulls refused by fault-injected outages.
    pub fn failed_pulls(&self) -> u64 {
        self.state.borrow().failed_pulls
    }

    /// The conservation ledger: per-node streamed bytes, ascending node id.
    /// Its sum always equals [`Registry::bytes_served`].
    pub fn bytes_ledger(&self) -> Vec<(NodeId, u64)> {
        self.state
            .borrow()
            .bytes_by_node
            .iter()
            .map(|(n, b)| (*n, *b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::mib;
    use swf_simcore::{join_all, now, spawn, Sim, SimTime};

    fn registry() -> Registry {
        Registry::new(RegistryConfig {
            bandwidth: Rate::mb_per_s(100.0),
            manifest_latency: SimDuration::ZERO,
            concurrent_streams: 2,
        })
    }

    #[test]
    fn pull_unknown_image_fails() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            let err = r
                .pull(NodeId(0), &ImageRef::parse("ghost"))
                .await
                .unwrap_err();
            assert!(matches!(err, ContainerError::ImageNotFound(_)));
        });
    }

    #[test]
    fn first_pull_moves_all_layers_second_is_free() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            let img = Image::python_scientific(ImageRef::parse("m"), 1);
            let total = img.total_size();
            r.push(img);
            let s1 = r.pull(NodeId(1), &ImageRef::parse("m")).await.unwrap();
            assert_eq!(s1.layers_pulled, 3);
            assert_eq!(s1.bytes_pulled, total);
            let t1 = now();
            assert!(t1 > SimTime::ZERO);
            let s2 = r.pull(NodeId(1), &ImageRef::parse("m")).await.unwrap();
            assert_eq!(s2.layers_pulled, 0);
            assert_eq!(s2.layers_cached, 3);
            assert_eq!(now(), t1); // no additional stream time
            assert!(r.is_cached(NodeId(1), &ImageRef::parse("m")));
        });
    }

    #[test]
    fn outage_refuses_pulls_but_keeps_the_ledger_balanced() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            r.push(Image::python_scientific(ImageRef::parse("m"), 1));
            r.pull(NodeId(1), &ImageRef::parse("m")).await.unwrap();
            r.set_outage(true);
            assert!(r.is_under_outage());
            let err = r.pull(NodeId(2), &ImageRef::parse("m")).await.unwrap_err();
            assert!(matches!(err, ContainerError::RegistryUnavailable(_)));
            assert_eq!(r.failed_pulls(), 1);
            // Cached layers stay usable during the outage: the node that
            // already holds everything "pulls" without streaming.
            let cached = r.is_cached(NodeId(1), &ImageRef::parse("m"));
            assert!(cached);
            r.set_outage(false);
            r.pull(NodeId(2), &ImageRef::parse("m")).await.unwrap();
            // Conservation: per-node ledger sums to bytes_served.
            let ledger_sum: u64 = r.bytes_ledger().iter().map(|(_, b)| *b).sum();
            assert_eq!(ledger_sum, r.bytes_served());
        });
    }

    #[test]
    fn distinct_nodes_have_distinct_caches() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            r.push(Image::single_layer(ImageRef::parse("x"), 7, mib(10)));
            r.pull(NodeId(1), &ImageRef::parse("x")).await.unwrap();
            assert!(r.is_cached(NodeId(1), &ImageRef::parse("x")));
            assert!(!r.is_cached(NodeId(2), &ImageRef::parse("x")));
        });
    }

    #[test]
    fn shared_layers_are_deduplicated() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            r.push(Image::python_scientific(ImageRef::parse("a"), 1));
            r.push(Image::python_scientific(ImageRef::parse("b"), 0x100 + 1));
            r.pull(NodeId(1), &ImageRef::parse("a")).await.unwrap();
            // b shares base+python layers (same seed byte), differs in app.
            let s = r.pull(NodeId(1), &ImageRef::parse("b")).await.unwrap();
            assert_eq!(s.layers_cached, 2);
            assert_eq!(s.layers_pulled, 1);
            assert_eq!(s.bytes_pulled, mib(20));
        });
    }

    #[test]
    fn concurrent_pulls_contend_on_egress() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            // One layer of 100MB = 1s at 100MB/s; 2 streams allowed.
            for i in 0..4u64 {
                r.push(Image::single_layer(
                    ImageRef::parse(&format!("img{i}")),
                    100 + i,
                    100_000_000,
                ));
            }
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    let r = r.clone();
                    spawn(async move {
                        r.pull(NodeId(i as usize), &ImageRef::parse(&format!("img{i}")))
                            .await
                            .unwrap();
                        now()
                    })
                })
                .collect();
            let done = join_all(handles).await;
            // Two at a time: finish at ~1s and ~2s.
            assert_eq!(done[0], SimTime::ZERO + secs(1.0));
            assert_eq!(done[1], SimTime::ZERO + secs(1.0));
            assert_eq!(done[2], SimTime::ZERO + secs(2.0));
            assert_eq!(done[3], SimTime::ZERO + secs(2.0));
        });
    }

    #[test]
    fn evict_forces_repull() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = registry();
            r.push(Image::single_layer(ImageRef::parse("x"), 9, mib(10)));
            r.pull(NodeId(0), &ImageRef::parse("x")).await.unwrap();
            r.evict(NodeId(0), &ImageRef::parse("x"));
            assert!(!r.is_cached(NodeId(0), &ImageRef::parse("x")));
            let s = r.pull(NodeId(0), &ImageRef::parse("x")).await.unwrap();
            assert_eq!(s.layers_pulled, 1);
        });
    }
}
