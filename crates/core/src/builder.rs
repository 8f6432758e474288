//! Workflow construction and data staging.
//!
//! Turns the generated chain shapes (Fig. 3/4) into Pegasus abstract
//! workflows, generates the real seed matrices, stages them on the shared
//! filesystem and registers them in the replica catalog.

use bytes::Bytes;
use swf_cluster::Cluster;
use swf_pegasus::{AbstractJob, AbstractWorkflow, ReplicaCatalog, ReplicaLocation, Transformation};
use swf_simcore::DetRng;
use swf_workloads::{ChainWorkflow, Kernel};

use crate::config::ExperimentConfig;

/// The experiment's matmul transformation: two encoded matrices in, their
/// encoded product out, with the config-calibrated compute time.
pub fn matmul_transformation(config: &ExperimentConfig) -> Transformation {
    let compute = config.compute.for_dim(config.matrix_dim);
    Transformation::new("matmul", compute, |inputs| {
        if inputs.len() != 2 {
            return Err(format!("matmul expects 2 inputs, got {}", inputs.len()));
        }
        let product =
            swf_workloads::multiply_encoded(inputs[0].clone(), inputs[1].clone(), Kernel::Blocked)?;
        Ok(vec![product])
    })
    .with_container(ExperimentConfig::image_name())
}

/// One random `matrix_dim`-square seed matrix, entries in [-100, 100],
/// drawn straight into its file.
fn draw_seed(config: &ExperimentConfig, rng: &mut DetRng) -> Bytes {
    let dim = config.matrix_dim;
    swf_workloads::codec::random(dim, dim, rng, -100, 100)
}

/// Two encoded random input matrices drawn, in order, from the named
/// stream of the config's seed.
pub(crate) fn input_pair(config: &ExperimentConfig, stream: &str) -> (Bytes, Bytes) {
    let mut rng = DetRng::new(config.seed, stream);
    let a = draw_seed(config, &mut rng);
    (a, draw_seed(config, &mut rng))
}

/// Stage a chain workflow's seed matrices (real random data at the
/// configured dimension) and register them as replicas. Returns the
/// abstract workflow ready for planning.
pub fn stage_chain_workflow(
    cluster: &Cluster,
    replicas: &ReplicaCatalog,
    chain: &ChainWorkflow,
    config: &ExperimentConfig,
) -> AbstractWorkflow {
    let mut rng = DetRng::new(config.seed, &format!("seeds-w{}", chain.index));
    for seed_file in &chain.seed_files {
        cluster
            .shared_fs()
            .stage(seed_file, draw_seed(config, &mut rng));
        replicas.register(seed_file, ReplicaLocation::SharedFs(seed_file.clone()));
    }
    let mut wf = AbstractWorkflow::new(format!("workflow-{}", chain.index));
    for task in &chain.tasks {
        wf.add_job(AbstractJob {
            name: task.name.clone(),
            transformation: "matmul".into(),
            inputs: vec![task.input_a.clone(), task.input_b.clone()],
            outputs: vec![task.output.clone()],
            env: task.env,
        });
    }
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_cluster::ClusterConfig;
    use swf_simcore::Sim;
    use swf_workloads::{chain_workflow, encode, EnvMix, Matrix};

    #[test]
    fn staging_places_all_seeds_and_builds_jobs() {
        let sim = Sim::new();
        sim.block_on(async {
            let config = ExperimentConfig::quick();
            let cluster = Cluster::new(&ClusterConfig::default());
            let replicas = ReplicaCatalog::new();
            let mut rng = DetRng::new(1, "t");
            let chain = chain_workflow(0, 5, EnvMix::ALL_NATIVE, &mut rng);
            let wf = stage_chain_workflow(&cluster, &replicas, &chain, &config);
            assert_eq!(wf.len(), 5);
            for f in &chain.seed_files {
                assert!(cluster.shared_fs().exists(f), "{f} staged");
                assert!(replicas.contains(f));
            }
            // Matrices are real: decode and check the dimension.
            let data = cluster
                .shared_fs()
                .read(&chain.seed_files[0])
                .await
                .unwrap();
            let m = swf_workloads::decode(data).unwrap();
            assert_eq!(m.rows(), config.matrix_dim);
            // Dependencies chain correctly.
            let edges = wf.derive_dependencies().unwrap();
            assert_eq!(edges.len(), 4);
        });
    }

    #[test]
    fn matmul_transformation_computes_products() {
        let config = ExperimentConfig::quick();
        let t = matmul_transformation(&config);
        let mut rng = DetRng::new(2, "mm");
        let a = Matrix::random(4, 4, &mut rng, -5, 5);
        let b = Matrix::random(4, 4, &mut rng, -5, 5);
        let outs = (t.logic)(vec![encode(&a), encode(&b)]).unwrap();
        let product = swf_workloads::decode(outs[0].clone()).unwrap();
        assert_eq!(product, swf_workloads::matmul(&a, &b, Kernel::Blocked));
        assert!((t.logic)(vec![encode(&a)]).is_err());
        assert_eq!(
            t.container_image.as_deref(),
            Some(ExperimentConfig::image_name())
        );
    }
}
