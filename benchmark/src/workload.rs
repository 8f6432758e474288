//! What every workload provides, and the bookkeeping shared between them.

use std::collections::BTreeMap;

use serde_json::Value;
use swf_core::ExperimentConfig;

use crate::tracer::Tracer;

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Checks {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub failures: Vec<String>,
}

impl Checks {
    /// Count `n` operations that completed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count one operation or output check; `why` is evaluated on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }

    /// Count one check given as a `Result`.
    pub fn check_result<T>(&mut self, result: Result<T, String>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Named numbers, in insertion-independent (sorted) order.
pub type Values = BTreeMap<&'static str, f64>;

/// What one pass over a workload's work reports.
#[derive(Default)]
pub struct PassOut {
    /// Virtual results and counts. Pure functions of program and seed: every
    /// pass of a run, and every run at one seed, must report the same bits.
    pub exact: Values,
    /// Host-side measurements taken inside the pass (seconds spent in one
    /// kind of call), summarised across passes by their median.
    pub host: Values,
}

/// What a workload's per-layer section gets to work with.
pub struct LayerCtx<'a> {
    /// The recorder that was on during the traced pass; isolation sections
    /// record into it too.
    pub tr: &'a Tracer,
    /// Host seconds of the traced pass.
    pub traced_wall_s: f64,
    /// Exact values of the traced pass.
    pub exact: &'a Values,
    /// What isolation sections divide their operation counts by: 1, or 20
    /// in a smoke run.
    pub scale: u64,
}

/// One benchmark workload. Construction is the set-up: generate inputs from
/// the seed, touch lazily built state, run one small warm-up with its output
/// checks.
pub trait Workload {
    /// One pass over the workload's measured work. Passes of one run repeat
    /// identical work, so their times are samples of one quantity.
    fn pass(&mut self, tr: &Tracer, checks: &mut Checks) -> PassOut;

    /// Per-layer numbers: counts from a program-traced repeat, times from the
    /// traced pass's spans, and isolation sections for the layers this
    /// workload leans on. Runs only in the traced run.
    fn layers(&mut self, ctx: &LayerCtx, checks: &mut Checks, out: &mut Values);

    /// The sizes this workload ran at, for the result file.
    fn sizes(&self) -> Value;
}

/// `config` with every seeded stream of the stack re-rooted at `seed`.
pub fn seeded(mut config: ExperimentConfig, seed: u64) -> ExperimentConfig {
    config.seed = seed;
    config.condor.negotiator.seed = seed;
    config.knative.seed = seed;
    config
}

/// Bytes of the function image every testbed stages as a tarball.
fn image_tarball_bytes() -> usize {
    let reference = swf_container::ImageRef::parse(ExperimentConfig::image_name());
    swf_container::Image::python_scientific(reference, 1).total_size() as usize
}

/// First touch of the thread-local zero pool behind
/// `TestBed::stage_image_tarball`: a one-off 450 MiB allocate-and-copy that
/// every later boot shares. It belongs to set-up, so it is paid (and, in the
/// traced run, timed) here instead of inside the first measured pass.
pub fn touch_zero_pool(tr: &Tracer) {
    tr.span("cluster.zero_pool_first_touch", || {
        std::hint::black_box(swf_cluster::zeroed_bytes(image_tarball_bytes()));
    });
}

/// First of the block of derived seeds that belongs to benchmark seed `seed`:
/// blocks of neighbouring benchmark seeds are half a million apart, so they
/// do not overlap, and the halving leaves room to count upwards from it.
pub fn seed_block(seed: u64) -> u64 {
    seed.wrapping_mul(1_000_003) >> 1
}
