//! Differential scheduler harness: the production executor (`swf-simcore`,
//! slab tasks + intrusive ready list + `(at, seq)` timer heap) versus the
//! reference oracle (`swf-simref`, the pre-rewrite BinaryHeap/BTreeMap/
//! VecDeque implementation, kept verbatim as a dev-dependency).
//!
//! Two layers of evidence that the rewrite is bit-exact (DESIGN.md §16):
//!
//! 1. **64-seed program sweep** — seeded random spawn/sleep/cancel/wake/
//!    yield/interval programs are interpreted on both runtimes; the full
//!    execution trace (every op's virtual timestamp in execution order),
//!    poll counts, and final clocks must be identical.
//! 2. **fig2 lockstep replay** — the complete simulation stack runs the
//!    fig2 scenario under the exact suite configuration, and every output
//!    (12 makespans + 3 regression fits) must match `f64::to_bits`-pinned
//!    golden values captured from the pre-rewrite executor.
//!
//! The interpreter is duplicated per runtime by `impl_interpreter!` because
//! the two `Sim`/`spawn`/`sleep` families are distinct types with identical
//! shapes; the wake primitive (`ManualEvent`) is runtime-agnostic so both
//! sides share one cross-task wake implementation.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use swf_simcore::DetRng;

/// One program op. Durations are raw nanoseconds so the generator controls
/// deadline collisions exactly.
#[derive(Clone, Debug)]
enum Op {
    /// Sleep for the given span and resume.
    Sleep(u64),
    /// Create a sleep and drop it unawaited (timer-cancellation path).
    CancelledSleep(u64),
    /// Yield once to every other ready task.
    Yield,
    /// Set a manual event, waking all its waiters.
    Set(usize),
    /// Await a manual event (cross-task wake).
    Wait(usize),
    /// Record a trace entry.
    Log,
    /// Spawn a child task (its `JoinHandle` is dropped; stragglers are
    /// drained by `run_until_idle` after `block_on` returns).
    Spawn(Box<Task>),
    /// Drive a fixed-rate `Interval` for `n` ticks of `period` ns.
    Ticks { period: u64, n: u32 },
}

#[derive(Clone, Debug)]
struct Task {
    label: u32,
    ops: Vec<Op>,
}

#[derive(Clone, Debug)]
struct Program {
    tasks: Vec<Task>,
    n_events: usize,
}

/// A coarse grid for some sleeps forces same-instant deadline collisions;
/// fine values interleave between the grid points; large values park
/// far-future timers under everything else.
fn gen_duration(rng: &mut DetRng) -> u64 {
    match rng.uniform_u64(0, 10) {
        0 => 0,
        1..=4 => rng.uniform_u64(0, 16) * 250_000_000,
        5..=7 => rng.uniform_u64(1, 5_000_000_000),
        8 => rng.uniform_u64(1, 300) * 1_000_000_000,
        _ => rng.uniform_u64(1, 20_000) * 1_000_000_000,
    }
}

fn gen_ops(rng: &mut DetRng, n_events: usize, depth: u32, next_label: &mut u32) -> Vec<Op> {
    let n = rng.uniform_u64(2, 8) as usize;
    (0..n)
        .map(
            |_| match rng.uniform_u64(0, if depth > 0 { 16 } else { 14 }) {
                0..=3 => Op::Sleep(gen_duration(rng)),
                4..=5 => Op::CancelledSleep(gen_duration(rng).max(1)),
                6..=7 => Op::Yield,
                8..=9 => Op::Set(rng.index(n_events)),
                10..=11 => Op::Wait(rng.index(n_events)),
                12 => Op::Ticks {
                    period: rng.uniform_u64(1, 8) * 500_000_000,
                    n: rng.uniform_u64(1, 4) as u32,
                },
                13 => Op::Log,
                _ => {
                    *next_label += 1;
                    Op::Spawn(Box::new(Task {
                        label: *next_label,
                        ops: gen_ops(rng, n_events, depth - 1, next_label),
                    }))
                }
            },
        )
        .collect()
}

fn gen_program(seed: u64) -> Program {
    let mut rng = DetRng::new(seed, "executor-equivalence");
    let n_events = rng.uniform_u64(2, 6) as usize;
    let n_tasks = rng.uniform_u64(3, 10) as usize;
    let mut next_label = n_tasks as u32;
    let tasks = (0..n_tasks)
        .map(|i| Task {
            label: i as u32,
            ops: gen_ops(&mut rng, n_events, 2, &mut next_label),
        })
        .collect();
    Program { tasks, n_events }
}

/// Runtime-agnostic cross-task wake primitive: a settable flag plus a
/// waiter list. Both executors' `Waker`s flow through the same code here,
/// so any ordering difference in the resulting trace is the executor's.
struct ManualEvent {
    set: Cell<bool>,
    waiters: RefCell<Vec<Waker>>,
}

impl ManualEvent {
    fn new() -> Self {
        ManualEvent {
            set: Cell::new(false),
            waiters: RefCell::new(Vec::new()),
        }
    }

    fn set_now(&self) {
        if !self.set.replace(true) {
            for w in self.waiters.borrow_mut().drain(..) {
                w.wake();
            }
        }
    }
}

struct WaitEvent {
    ev: Rc<ManualEvent>,
}

impl Future for WaitEvent {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.ev.set.get() {
            Poll::Ready(())
        } else {
            self.ev.waiters.borrow_mut().push(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A trace entry: virtual timestamp, task label, op index within the task
/// (`u32::MAX` marks task completion). Trace *order* is part of equality:
/// two runs agree only if every op ran at the same virtual instant in the
/// same interleaving.
type TraceEntry = (u64, u32, u32);

#[derive(Clone)]
struct Ctx {
    events: Rc<Vec<Rc<ManualEvent>>>,
    trace: Rc<RefCell<Vec<TraceEntry>>>,
}

/// Everything observable about one run. `PartialEq` equality between the
/// production and reference runs is the differential assertion.
#[derive(Debug, PartialEq, Eq)]
struct RunLog {
    trace: Vec<TraceEntry>,
    block_on_finished_at: u64,
    idle_at: u64,
    steps: u64,
    spawned: u64,
}

macro_rules! impl_interpreter {
    ($module:ident, $rt:ident) => {
        mod $module {
            use super::*;
            use $rt as rt;

            fn task_future(task: Task, ctx: Ctx) -> Pin<Box<dyn Future<Output = ()>>> {
                Box::pin(async move {
                    for (i, op) in task.ops.into_iter().enumerate() {
                        match op {
                            Op::Sleep(ns) => {
                                rt::sleep(swf_simcore::SimDuration::from_nanos(ns)).await;
                            }
                            Op::CancelledSleep(ns) => {
                                let _dropped = rt::sleep(swf_simcore::SimDuration::from_nanos(ns));
                            }
                            Op::Yield => rt::yield_now().await,
                            Op::Set(e) => ctx.events[e].set_now(),
                            Op::Wait(e) => {
                                WaitEvent {
                                    ev: Rc::clone(&ctx.events[e]),
                                }
                                .await
                            }
                            Op::Log => {}
                            Op::Spawn(child) => {
                                let _detached = rt::spawn(task_future(*child, ctx.clone()));
                            }
                            Op::Ticks { period, n } => {
                                let mut iv =
                                    rt::interval(swf_simcore::SimDuration::from_nanos(period));
                                for _ in 0..n {
                                    iv.tick().await;
                                }
                            }
                        }
                        ctx.trace
                            .borrow_mut()
                            .push((rt::now().as_nanos(), task.label, i as u32));
                    }
                    ctx.trace
                        .borrow_mut()
                        .push((rt::now().as_nanos(), task.label, u32::MAX));
                })
            }

            pub fn run_program(prog: &Program) -> RunLog {
                let sim = rt::Sim::new();
                sim.set_step_limit(5_000_000);
                let ctx = Ctx {
                    events: Rc::new(
                        (0..prog.n_events)
                            .map(|_| Rc::new(ManualEvent::new()))
                            .collect(),
                    ),
                    trace: Rc::new(RefCell::new(Vec::new())),
                };
                let tasks = prog.tasks.clone();
                let root_ctx = ctx.clone();
                let finished_at = sim.block_on(async move {
                    let handles: Vec<_> = tasks
                        .into_iter()
                        .map(|t| rt::spawn(task_future(t, root_ctx.clone())))
                        .collect();
                    // Backstop: every event is eventually set, so no `Wait`
                    // can hang the program.
                    rt::sleep(swf_simcore::secs(50.0)).await;
                    for ev in root_ctx.events.iter() {
                        ev.set_now();
                    }
                    for h in handles {
                        h.await;
                    }
                    rt::now().as_nanos()
                });
                // Drain detached stragglers (dropped child handles).
                sim.run_until_idle();
                RunLog {
                    trace: Rc::try_unwrap(ctx.trace)
                        .expect("all tasks done")
                        .into_inner(),
                    block_on_finished_at: finished_at,
                    idle_at: sim.now().as_nanos(),
                    steps: sim.steps(),
                    spawned: sim.spawned_total(),
                }
            }
        }
    };
}

impl_interpreter!(production, swf_simcore);
impl_interpreter!(reference, swf_simref);

/// The headline differential sweep: 64 seeded random programs, interpreted
/// on both runtimes, asserting identical traces (virtual timestamps *and*
/// interleaving), poll counts, spawn counts, and final clocks.
#[test]
fn sixty_four_seed_differential_sweep() {
    for seed in 0..64u64 {
        let prog = gen_program(seed);
        let prod = production::run_program(&prog);
        let refr = reference::run_program(&prog);
        assert_eq!(
            prod, refr,
            "seed {seed}: production and reference executors diverged"
        );
        assert!(
            !prod.trace.is_empty(),
            "seed {seed}: degenerate program traced nothing"
        );
    }
}

/// Same program, run twice on the production executor: the trace is a pure
/// function of the program (the determinism half of the contract).
#[test]
fn production_runs_are_self_deterministic() {
    for seed in [3u64, 17, 41] {
        let prog = gen_program(seed);
        assert_eq!(
            production::run_program(&prog),
            production::run_program(&prog),
            "seed {seed}: production executor is not deterministic"
        );
    }
}

// ---------------------------------------------------------------------------
// fig2 lockstep replay
// ---------------------------------------------------------------------------

/// The fig2 scenario exactly as the bench suite runs it (quick scale,
/// tracing + telemetry series on, negotiation-bound condor config).
fn fig2_suite_result() -> swf_core::experiments::fig2::Fig2Result {
    let mut config = swf_core::ExperimentConfig::quick();
    config.matrix_dim = 32;
    config.trace = true;
    config.series_interval_s = 5.0;
    config.condor.negotiator.cycle_interval = swf_simcore::secs(5.0);
    config.condor.negotiator.activation_delay = swf_simcore::SimDuration::ZERO;
    let obs = swf_obs::Obs::enabled();
    let _guard = swf_obs::install(obs);
    swf_core::experiments::fig2::run(&config, &[4, 8, 16, 24])
}

fn fig2_outputs(r: &swf_core::experiments::fig2::Fig2Result) -> Vec<f64> {
    let mut out = Vec::new();
    for row in &r.rows {
        out.extend([row.native, row.knative, row.container]);
    }
    for fit in [&r.native_fit, &r.knative_fit, &r.container_fit] {
        out.extend([fit.slope, fit.intercept, fit.r_squared]);
    }
    out
}

/// Golden `f64::to_bits` values for every fig2 output, captured from the
/// pre-rewrite executor (BinaryHeap timers / BTreeMap tasks / VecDeque
/// ready queue) at the exact suite configuration. The production executor
/// must reproduce all of them bit for bit. Regenerate (only after an
/// *intentional* semantic change, with a fresh `suite compare` baseline)
/// via `cargo test --release --test executor_equivalence -- --ignored
/// print_fig2_golden_bits --nocapture`.
const FIG2_GOLDEN_BITS: [u64; 21] = [
    0x3fe422a2b88d60e2, // 0.629227982
    0x40000949a520c787, // 2.004534998
    0x402023966b2ab524, // 8.069506978
    0x3fe7f9acf5fe04b9, // 0.749227982
    0x4000ff0c347cf07d, // 2.124534998
    0x4028727df2d2a384, // 12.223617161
    0x401f25d721ba64eb, // 7.786953475
    0x401c940efa32a55e, // 7.144588384
    0x4035aa0367cfae3a, // 21.664114464
    0x40200dccd88b46f0, // 8.026953475
    0x401d89d1898ece53, // 7.384588384
    0x403ac300163f206b, // 26.761720076
    0x3fdbba72c4ddee10, // 0.4332549021271186
    0xbff558fa372ee634, // -1.3342229991525416
    0x3feb3143eaa3d9ce, // 0.849763830453236
    0x3fd4116866e07895, // 0.313562489
    0x3fe2d2f0446d8fa0, // 0.5882493340000003
    0x3feb6c513aff3576, // 0.8569723274501218
    0x3fee97f487fa64cc, // 0.9560492187330509
    0x401301205016972c, // 4.7510998262203366
    0x3fef7333685130d0, // 0.9828125989384038
];

#[test]
#[ignore = "golden-capture helper, run with --nocapture to print constants"]
fn print_fig2_golden_bits() {
    let r = fig2_suite_result();
    println!("const FIG2_GOLDEN_BITS: [u64; 21] = [");
    for v in fig2_outputs(&r) {
        println!("    0x{:016x}, // {v}", v.to_bits());
    }
    println!("];");
}

#[test]
fn fig2_lockstep_matches_pre_rewrite_golden() {
    let r = fig2_suite_result();
    let outputs = fig2_outputs(&r);
    assert_eq!(outputs.len(), FIG2_GOLDEN_BITS.len());
    for (i, (v, &bits)) in outputs.iter().zip(FIG2_GOLDEN_BITS.iter()).enumerate() {
        assert_eq!(
            v.to_bits(),
            bits,
            "fig2 output #{i} drifted: got {v} ({:#018x}), golden {:#018x}",
            v.to_bits(),
            bits
        );
    }
}
