//! The assembled testbed: cluster + registry + HTCondor + Kubernetes +
//! Knative, mirroring the paper's §V-A software stack on 4 VMs.

use swf_cluster::Cluster;
use swf_condor::Condor;
use swf_container::{Image, ImageRef, Registry};
use swf_k8s::K8s;
use swf_knative::Knative;

use crate::config::ExperimentConfig;
use crate::factory::IntegratedFactory;

/// A fully booted reproduction of the paper's environment.
pub struct TestBed {
    /// The 4-VM cluster.
    pub cluster: Cluster,
    /// Image registry (DockerHub stand-in) with the matmul image pushed.
    pub registry: Registry,
    /// HTCondor pool (submit node schedd + worker startds).
    pub condor: Condor,
    /// Kubernetes control plane (one kubelet per worker).
    pub k8s: K8s,
    /// Knative serving on top of Kubernetes.
    pub knative: Knative,
    /// The function image used by all experiments.
    pub image: ImageRef,
    /// The configuration the bed was built from.
    pub config: ExperimentConfig,
}

impl TestBed {
    /// Boot everything. Must run inside a simulation (`Sim::block_on`).
    pub fn boot(config: &ExperimentConfig) -> TestBed {
        let cluster = Cluster::new(&config.cluster);
        let registry = Registry::new(config.registry);
        let image = ImageRef::parse(ExperimentConfig::image_name());
        registry.push(Image::python_scientific(image.clone(), 1));
        let condor = Condor::start(&cluster, config.condor);
        let k8s = K8s::start(&cluster, registry.clone(), config.k8s.clone(), config.seed);
        let knative = Knative::start(&cluster, k8s.clone(), config.knative);
        if config.trace && config.series_interval_s > 0.0 {
            let obs = swf_obs::current();
            if obs.is_enabled() {
                // Start the telemetry snapshot scheduler for this run. The
                // sampler only reads the registry, so virtual-time results
                // stay bit-identical whether or not it runs.
                obs.configure_series(swf_obs::SeriesConfig::every(swf_simcore::secs(
                    config.series_interval_s,
                )));
                swf_obs::spawn_sampler(&obs);
            }
        }
        TestBed {
            cluster,
            registry,
            condor,
            k8s,
            knative,
            image,
            config: config.clone(),
        }
    }

    /// Stage the container image tarball on the shared filesystem so
    /// Pegasus can transfer it per job (traditional container path).
    /// Returns the logical file name.
    pub fn stage_image_tarball(&self) -> String {
        let name = "images/matmul.tar".to_string();
        #[expect(
            clippy::expect_used,
            reason = "`boot` pushed this image to this registry"
        )]
        let size = self
            .registry
            .manifest(&self.image)
            .expect("image pushed at boot")
            .total_size();
        // The tarball is opaque bulk data: real size, synthetic content.
        // `zeroed_bytes` shares one never-written backing allocation
        // across boots, so staging is O(1) and the 450 MiB stay virtual.
        self.cluster
            .shared_fs()
            .stage(&name, swf_cluster::zeroed_bytes(size as usize));
        name
    }

    /// Stage the image tarball and build the paper's integrated factory
    /// from this bed and its config (container staging mode,
    /// serialization rate). Returns the factory and the tarball's logical
    /// file name, which a Pegasus run must also register as a replica.
    pub fn factory(&self) -> (IntegratedFactory, String) {
        let tarball = self.stage_image_tarball();
        let factory = IntegratedFactory::new(
            self.knative.clone(),
            self.k8s.clone(),
            self.image.clone(),
            self.config.container_staging,
            Some(tarball.clone()),
        )
        .with_serialization_rate(self.config.serialization_rate);
        (factory, tarball)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::Sim;

    #[test]
    fn boot_brings_up_all_subsystems() {
        let sim = Sim::new();
        sim.block_on(async {
            let bed = TestBed::boot(&ExperimentConfig::quick());
            assert_eq!(bed.cluster.nodes().len(), 4);
            assert_eq!(bed.condor.total_slots(), 24);
            assert_eq!(bed.k8s.schedulable_nodes().len(), 3);
            assert!(bed.registry.manifest(&bed.image).is_ok());
        });
    }

    #[test]
    fn image_tarball_has_image_size() {
        let sim = Sim::new();
        sim.block_on(async {
            let bed = TestBed::boot(&ExperimentConfig::quick());
            let name = bed.stage_image_tarball();
            let expected = bed.registry.manifest(&bed.image).unwrap().total_size();
            assert_eq!(bed.cluster.shared_fs().size(&name), Some(expected));
        });
    }
}
