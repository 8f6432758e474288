//! Workflow shape generators: the paper's Figures 3 and 4.
//!
//! A workflow is a chain of `length` matmul tasks (Fig. 3); an experiment
//! runs `count` such chains concurrently with each task assigned one of
//! three execution environments, drawn randomly before the run (Fig. 4).

use swf_simcore::DetRng;

/// Where one task executes (the paper's Setups 1–3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ExecEnv {
    /// Setup 1: plain process on the matched worker.
    Native,
    /// Setup 2: `docker run` per task on the matched worker.
    Container,
    /// Setup 3: wrapper job invoking the pre-registered Knative function.
    Serverless,
}

impl std::fmt::Display for ExecEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecEnv::Native => write!(f, "native"),
            ExecEnv::Container => write!(f, "container"),
            ExecEnv::Serverless => write!(f, "serverless"),
        }
    }
}

/// Fractions of tasks assigned to each environment. Must sum to ≤ 1; the
/// remainder goes to Native.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnvMix {
    /// Fraction of serverless (Knative) tasks.
    pub serverless: f64,
    /// Fraction of traditional-container tasks.
    pub container: f64,
}

impl EnvMix {
    /// All tasks native (Fig. 6 blue bar).
    pub const ALL_NATIVE: EnvMix = EnvMix {
        serverless: 0.0,
        container: 0.0,
    };
    /// All tasks serverless (Fig. 6 green bar).
    pub const ALL_SERVERLESS: EnvMix = EnvMix {
        serverless: 1.0,
        container: 0.0,
    };
    /// All tasks in traditional containers (Fig. 6 purple bar).
    pub const ALL_CONTAINER: EnvMix = EnvMix {
        serverless: 0.0,
        container: 1.0,
    };
    /// Half serverless, half native (Fig. 6 orange bar).
    pub const HALF_SERVERLESS: EnvMix = EnvMix {
        serverless: 0.5,
        container: 0.0,
    };

    /// The native fraction (remainder).
    pub fn native(&self) -> f64 {
        (1.0 - self.serverless - self.container).max(0.0)
    }

    /// Deterministically assign environments to `n` tasks: exact counts
    /// from the fractions (largest remainder to native), then a seeded
    /// shuffle — matching the paper's "distribution of tasks among these
    /// platforms is determined randomly before initiating the workflows".
    pub fn assign(&self, n: usize, rng: &mut DetRng) -> Vec<ExecEnv> {
        let n_serverless = (self.serverless * n as f64).round() as usize;
        let n_container = (self.container * n as f64).round() as usize;
        let n_serverless = n_serverless.min(n);
        let n_container = n_container.min(n - n_serverless);
        let mut envs = Vec::with_capacity(n);
        envs.extend(std::iter::repeat_n(ExecEnv::Serverless, n_serverless));
        envs.extend(std::iter::repeat_n(ExecEnv::Container, n_container));
        envs.extend(std::iter::repeat_n(
            ExecEnv::Native,
            n - n_serverless - n_container,
        ));
        rng.shuffle(&mut envs);
        envs
    }
}

/// One task in a generated workflow chain.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainTask {
    /// Task name, unique across the experiment.
    pub name: String,
    /// First input file (the previous task's output, or a seed matrix).
    pub input_a: String,
    /// Second input file (a per-step seed matrix).
    pub input_b: String,
    /// Output file.
    pub output: String,
    /// Execution environment.
    pub env: ExecEnv,
}

/// A generated sequential workflow (Fig. 3).
#[derive(Clone, Debug)]
pub struct ChainWorkflow {
    /// Workflow index within the experiment.
    pub index: usize,
    /// Ordered tasks; task `t` consumes task `t-1`'s output.
    pub tasks: Vec<ChainTask>,
    /// Seed matrix files this workflow needs staged before running.
    pub seed_files: Vec<String>,
}

/// Generate one chain workflow of `length` tasks with environments drawn
/// from `mix`.
pub fn chain_workflow(index: usize, length: usize, mix: EnvMix, rng: &mut DetRng) -> ChainWorkflow {
    let envs = mix.assign(length, rng);
    let mut tasks = Vec::with_capacity(length);
    let mut seed_files = vec![format!("w{index}_seed_a.mat")];
    for (t, env) in envs.into_iter().enumerate() {
        let input_a = if t == 0 {
            format!("w{index}_seed_a.mat")
        } else {
            format!("w{index}_t{}_out.mat", t - 1)
        };
        let input_b = format!("w{index}_seed_b{t}.mat");
        seed_files.push(input_b.clone());
        tasks.push(ChainTask {
            name: format!("w{index}_t{t}"),
            input_a,
            input_b,
            output: format!("w{index}_t{t}_out.mat"),
            env,
        });
    }
    ChainWorkflow {
        index,
        tasks,
        seed_files,
    }
}

/// Generate the paper's concurrent experiment (Fig. 4): `count` chains of
/// `length` tasks each, all sharing one environment mix. Each workflow gets
/// an independent RNG stream so adding workflows never perturbs others.
pub fn concurrent_workflows(
    count: usize,
    length: usize,
    mix: EnvMix,
    seed: u64,
) -> Vec<ChainWorkflow> {
    (0..count)
        .map(|i| {
            let mut rng = DetRng::new(seed, &format!("workflow-{i}"));
            chain_workflow(i, length, mix, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_constants_cover_fig6_bars() {
        assert_eq!(EnvMix::ALL_NATIVE.native(), 1.0);
        assert_eq!(EnvMix::ALL_SERVERLESS.native(), 0.0);
        assert_eq!(EnvMix::HALF_SERVERLESS.native(), 0.5);
    }

    #[test]
    fn assign_exact_counts() {
        let mut rng = DetRng::new(3, "assign");
        let envs = EnvMix {
            serverless: 0.5,
            container: 0.3,
        }
        .assign(10, &mut rng);
        assert_eq!(
            envs.iter().filter(|e| **e == ExecEnv::Serverless).count(),
            5
        );
        assert_eq!(envs.iter().filter(|e| **e == ExecEnv::Container).count(), 3);
        assert_eq!(envs.iter().filter(|e| **e == ExecEnv::Native).count(), 2);
    }

    #[test]
    fn assign_is_deterministic_per_seed() {
        let mut r1 = DetRng::new(9, "a");
        let mut r2 = DetRng::new(9, "a");
        let m = EnvMix {
            serverless: 0.4,
            container: 0.4,
        };
        assert_eq!(m.assign(20, &mut r1), m.assign(20, &mut r2));
    }

    #[test]
    fn chain_links_outputs_to_inputs() {
        let mut rng = DetRng::new(1, "c");
        let wf = chain_workflow(2, 10, EnvMix::ALL_NATIVE, &mut rng);
        assert_eq!(wf.tasks.len(), 10);
        for t in 1..10 {
            assert_eq!(wf.tasks[t].input_a, wf.tasks[t - 1].output);
        }
        assert_eq!(wf.tasks[0].input_a, "w2_seed_a.mat");
        // 1 seed_a + 10 seed_b files.
        assert_eq!(wf.seed_files.len(), 11);
    }

    #[test]
    fn concurrent_workflows_are_independent_streams() {
        let a = concurrent_workflows(3, 10, EnvMix::HALF_SERVERLESS, 42);
        let b = concurrent_workflows(5, 10, EnvMix::HALF_SERVERLESS, 42);
        // Adding workflows does not change earlier ones.
        for i in 0..3 {
            let ea: Vec<_> = a[i].tasks.iter().map(|t| t.env).collect();
            let eb: Vec<_> = b[i].tasks.iter().map(|t| t.env).collect();
            assert_eq!(ea, eb);
        }
        // The paper's experiment: 10 workflows × 10 tasks = 100 tasks.
        let paper = concurrent_workflows(10, 10, EnvMix::ALL_SERVERLESS, 7);
        let total: usize = paper.iter().map(|w| w.tasks.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn env_display() {
        assert_eq!(ExecEnv::Native.to_string(), "native");
        assert_eq!(ExecEnv::Container.to_string(), "container");
        assert_eq!(ExecEnv::Serverless.to_string(), "serverless");
    }
}
