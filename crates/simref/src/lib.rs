//! # swf-simref
//!
//! The **reference oracle executor**: a verbatim copy of `swf-simcore`'s
//! original simple executor (FIFO `VecDeque` ready queue, `BTreeMap` task
//! storage, `BinaryHeap` timer queue) from before the slab/ready-list
//! rewrite, with the engine self-profiling hooks stripped. The production
//! executor keeps this timer queue; its task storage and ready queue differ.
//!
//! This crate exists for exactly one purpose: the differential scheduler
//! harness in `tests/executor_equivalence.rs` runs seeded random
//! task/timer/wake programs through this oracle and through the production
//! executor in lockstep, asserting identical virtual timestamps and wake
//! orders. It is a **dev-dependency only** — no production crate may depend
//! on it, and it must never be "improved": its value is that it stays the
//! simple, obviously-correct implementation the rewrite is measured
//! against (DESIGN.md §16, "the oracle-vs-production testing contract").
//!
//! The determinism contract both executors implement: tasks run in FIFO
//! wake order; when no task is ready the clock jumps to the earliest
//! pending timer; timers scheduled for the same instant fire in creation
//! order; a run is a pure function of the program and its RNG seeds.

#![warn(missing_docs)]
#![allow(
    clippy::disallowed_types,
    reason = "the `Mutex` in `WakeQueue`: required by the Waker contract, never contended"
)]

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
// `Waker` must be `Send + Sync`, so the ready queue lives behind a real
// mutex even though the simulation is single-threaded (see `WakeQueue`).
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use swf_simcore::{SimDuration, SimTime};

/// Identifier of a spawned task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub u64);

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// The wake-side of the executor. `Waker`s must be `Send + Sync`, so the
/// ready queue lives behind a real mutex even though the simulation itself
/// is single-threaded (the lock is never contended).
struct WakeQueue {
    ready: Mutex<VecDeque<TaskId>>,
}

impl WakeQueue {
    fn push(&self, id: TaskId) {
        let mut ready = self.ready.lock().unwrap();
        ready.push_back(id);
    }

    fn pop(&self) -> Option<TaskId> {
        self.ready.lock().unwrap().pop_front()
    }
}

struct TaskWaker {
    id: TaskId,
    queue: Arc<WakeQueue>,
    /// Deduplicates wakes between polls so a task is queued at most once.
    queued: AtomicBool,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::Relaxed) {
            self.queue.push(self.id);
        }
    }
}

struct TimerState {
    waker: RefCell<Option<Waker>>,
    fired: Cell<bool>,
    cancelled: Cell<bool>,
}

struct TimerEntry {
    at: SimTime,
    seq: u64,
    state: Rc<TimerState>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Inner {
    clock: Cell<SimTime>,
    tasks: RefCell<BTreeMap<TaskId, (LocalFuture, Arc<TaskWaker>)>>,
    wake_queue: Arc<WakeQueue>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    next_task_id: Cell<u64>,
    next_timer_seq: Cell<u64>,
    steps: Cell<u64>,
    step_limit: Cell<u64>,
    spawned_total: Cell<u64>,
}

/// Handle to a simulation. Cloning is cheap; all clones refer to the same
/// virtual world.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<Sim>> = const { RefCell::new(Vec::new()) };
}

struct EnterGuard;

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

fn enter(sim: &Sim) -> EnterGuard {
    CURRENT.with(|c| c.borrow_mut().push(sim.clone()));
    EnterGuard
}

/// The simulation handle of the currently running task.
///
/// # Panics
/// Panics when called outside a running simulation.
pub fn current() -> Sim {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .cloned()
            .expect("swf-simref: no simulation is running on this thread")
    })
}

/// The simulation handle of the currently running task, or `None` when no
/// simulation is active on this thread.
pub fn try_current() -> Option<Sim> {
    CURRENT.with(|c| c.borrow().last().cloned())
}

/// The current virtual time of the running simulation.
pub fn now() -> SimTime {
    current().now()
}

/// Spawn a task onto the currently running simulation.
pub fn spawn<F>(fut: F) -> JoinHandle<F::Output>
where
    F: Future + 'static,
    F::Output: 'static,
{
    current().spawn(fut)
}

impl Sim {
    /// Create a fresh simulation at `t = 0`.
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(Inner {
                clock: Cell::new(SimTime::ZERO),
                tasks: RefCell::new(BTreeMap::new()),
                wake_queue: Arc::new(WakeQueue {
                    ready: Mutex::new(VecDeque::new()),
                }),
                timers: RefCell::new(BinaryHeap::new()),
                next_task_id: Cell::new(0),
                next_timer_seq: Cell::new(0),
                steps: Cell::new(0),
                step_limit: Cell::new(u64::MAX),
                spawned_total: Cell::new(0),
            }),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.clock.get()
    }

    /// Number of task polls executed so far.
    pub fn steps(&self) -> u64 {
        self.inner.steps.get()
    }

    /// Total number of tasks ever spawned.
    pub fn spawned_total(&self) -> u64 {
        self.inner.spawned_total.get()
    }

    /// Number of tasks that have not yet completed.
    pub fn live_tasks(&self) -> usize {
        self.inner.tasks.borrow().len()
    }

    /// Cap the number of task polls; exceeding it panics.
    pub fn set_step_limit(&self, limit: u64) {
        self.inner.step_limit.set(limit);
    }

    /// Spawn a task. The task starts the next time the executor runs.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let id = TaskId(self.inner.next_task_id.get());
        self.inner.next_task_id.set(id.0 + 1);
        self.inner
            .spawned_total
            .set(self.inner.spawned_total.get() + 1);

        let result: Rc<RefCell<JoinState<F::Output>>> =
            Rc::new(RefCell::new(JoinState::Pending(None)));
        let result2 = Rc::clone(&result);
        let wrapped: LocalFuture = Box::pin(async move {
            let out = fut.await;
            let waker = match std::mem::replace(&mut *result2.borrow_mut(), JoinState::Done(out)) {
                JoinState::Pending(w) => w,
                JoinState::Done(_) | JoinState::Taken => None,
            };
            if let Some(w) = waker {
                w.wake();
            }
        });

        let waker = Arc::new(TaskWaker {
            id,
            queue: Arc::clone(&self.inner.wake_queue),
            queued: AtomicBool::new(true), // queued right below
        });
        self.inner
            .tasks
            .borrow_mut()
            .insert(id, (wrapped, Arc::clone(&waker)));
        self.inner.wake_queue.push(id);
        JoinHandle { state: result, id }
    }

    /// Register a timer at absolute time `at`; used by `sleep` and friends.
    fn register_timer(&self, at: SimTime) -> TimerHandle {
        let seq = self.inner.next_timer_seq.get();
        self.inner.next_timer_seq.set(seq + 1);
        let state = Rc::new(TimerState {
            waker: RefCell::new(None),
            fired: Cell::new(at <= self.now()),
            cancelled: Cell::new(false),
        });
        if !state.fired.get() {
            self.inner.timers.borrow_mut().push(Reverse(TimerEntry {
                at,
                seq,
                state: Rc::clone(&state),
            }));
        }
        TimerHandle { state }
    }

    fn poll_one(&self, id: TaskId) {
        let entry = self.inner.tasks.borrow_mut().remove(&id);
        let Some((mut fut, waker)) = entry else {
            return; // already completed; stale wake
        };
        waker.queued.store(false, Ordering::Relaxed);
        let steps = self.inner.steps.get() + 1;
        self.inner.steps.set(steps);
        if steps > self.inner.step_limit.get() {
            panic!(
                "swf-simref: step limit {} exceeded (possible wake loop); {} live tasks",
                self.inner.step_limit.get(),
                self.inner.tasks.borrow().len() + 1
            );
        }
        let w = Waker::from(Arc::clone(&waker));
        let mut cx = Context::from_waker(&w);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {}
            Poll::Pending => {
                self.inner.tasks.borrow_mut().insert(id, (fut, waker));
            }
        }
    }

    /// Fire every timer scheduled for the earliest pending instant, advancing
    /// the clock to it. Returns false if no timers remain.
    fn advance_to_next_timer(&self) -> bool {
        // Skip cancelled timers without advancing time for them.
        let next_at = loop {
            let mut timers = self.inner.timers.borrow_mut();
            match timers.peek() {
                None => return false,
                Some(Reverse(e)) if e.state.cancelled.get() => {
                    timers.pop();
                }
                Some(Reverse(e)) => break e.at,
            }
        };
        debug_assert!(next_at >= self.now(), "timer in the past");
        self.inner.clock.set(next_at);
        loop {
            let entry = {
                let mut timers = self.inner.timers.borrow_mut();
                match timers.peek() {
                    Some(Reverse(e)) if e.at == next_at => timers.pop().map(|r| r.0),
                    _ => None,
                }
            };
            let Some(entry) = entry else { break };
            if entry.state.cancelled.get() {
                continue;
            }
            entry.state.fired.set(true);
            let waker = entry.state.waker.borrow_mut().take();
            if let Some(w) = waker {
                w.wake();
            }
        }
        true
    }

    /// Run until no task is ready and no timer is pending.
    pub fn run_until_idle(&self) {
        let _guard = enter(self);
        loop {
            while let Some(id) = self.inner.wake_queue.pop() {
                self.poll_one(id);
            }
            if !self.advance_to_next_timer() {
                break;
            }
        }
    }

    /// Run the future to completion on this simulation, driving all spawned
    /// tasks as needed.
    ///
    /// # Panics
    /// Panics if the simulation goes idle before the future completes.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        let _guard = enter(self);
        loop {
            while let Some(id) = self.inner.wake_queue.pop() {
                self.poll_one(id);
            }
            if handle.is_finished() {
                break;
            }
            if !self.advance_to_next_timer() {
                break;
            }
        }
        match handle.try_take() {
            Some(out) => out,
            None => panic!(
                "swf-simref: block_on deadlocked at {} with {} live tasks",
                self.now(),
                self.live_tasks()
            ),
        }
    }
}

struct TimerHandle {
    state: Rc<TimerState>,
}

impl TimerHandle {
    fn fired(&self) -> bool {
        self.state.fired.get()
    }

    fn set_waker(&self, waker: &Waker) {
        *self.state.waker.borrow_mut() = Some(waker.clone());
    }

    fn cancel(&self) {
        self.state.cancelled.set(true);
    }
}

enum JoinState<T> {
    Pending(Option<Waker>),
    Done(T),
    Taken,
}

/// Awaitable handle to a spawned task's result.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Take the result if the task has completed.
    pub fn try_take(&self) -> Option<T> {
        let mut s = self.state.borrow_mut();
        match &*s {
            JoinState::Done(_) => match std::mem::replace(&mut *s, JoinState::Taken) {
                JoinState::Done(v) => Some(v),
                _ => unreachable!(),
            },
            _ => None,
        }
    }

    /// True once the task has finished (even if the result was taken).
    pub fn is_finished(&self) -> bool {
        !matches!(&*self.state.borrow(), JoinState::Pending(_))
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match &mut *s {
            JoinState::Pending(w) => {
                *w = Some(cx.waker().clone());
                Poll::Pending
            }
            JoinState::Done(_) => match std::mem::replace(&mut *s, JoinState::Taken) {
                JoinState::Done(v) => Poll::Ready(v),
                _ => unreachable!(),
            },
            JoinState::Taken => panic!("JoinHandle polled after completion"),
        }
    }
}

/// Sleep for `d` of virtual time.
pub fn sleep(d: SimDuration) -> Sleep {
    let sim = current();
    let at = sim.now() + d;
    Sleep {
        handle: sim.register_timer(at),
    }
}

/// Sleep until the absolute virtual instant `at`.
pub fn sleep_until(at: SimTime) -> Sleep {
    let sim = current();
    Sleep {
        handle: sim.register_timer(at),
    }
}

/// Future returned by [`sleep`] / [`sleep_until`].
pub struct Sleep {
    handle: TimerHandle,
}

impl Future for Sleep {
    type Output = ();
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.handle.fired() {
            Poll::Ready(())
        } else {
            self.handle.set_waker(cx.waker());
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.handle.cancel();
    }
}

/// A fixed-rate virtual ticker on a drift-free grid.
pub struct Interval {
    next: SimTime,
    period: SimDuration,
}

/// Create a ticker firing every `period`, first at `now + period`.
pub fn interval(period: SimDuration) -> Interval {
    assert!(!period.is_zero(), "interval period must be non-zero");
    Interval {
        next: current().now() + period,
        period,
    }
}

impl Interval {
    /// Wait for the next grid point and return the instant it fired at.
    pub async fn tick(&mut self) -> SimTime {
        let at = self.next;
        sleep_until(at).await;
        self.next = at + self.period;
        at
    }

    /// The instant the next [`tick`](Interval::tick) will complete at.
    pub fn next_at(&self) -> SimTime {
        self.next
    }
}

/// Yield once, letting every other ready task run before this one resumes.
pub async fn yield_now() {
    struct YieldNow(bool);
    impl Future for YieldNow {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.0 {
                Poll::Ready(())
            } else {
                self.0 = true;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }
    YieldNow(false).await
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::secs;

    #[test]
    fn block_on_returns_value() {
        let sim = Sim::new();
        assert_eq!(sim.block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn sleep_advances_virtual_clock() {
        let sim = Sim::new();
        let t = sim.block_on(async {
            sleep(secs(10.0)).await;
            sleep(secs(2.5)).await;
            now()
        });
        assert_eq!(t, SimTime::ZERO + secs(12.5));
    }

    #[test]
    fn simultaneous_timers_fire_in_creation_order() {
        let sim = Sim::new();
        let log = sim.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..5u32 {
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    sleep(secs(1.0)).await;
                    log.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        assert_eq!(log, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn yield_now_lets_others_run() {
        let sim = Sim::new();
        let order = sim.block_on(async {
            let order = Rc::new(RefCell::new(Vec::new()));
            let o1 = Rc::clone(&order);
            let h = spawn(async move {
                o1.borrow_mut().push("spawned");
            });
            order.borrow_mut().push("before-yield");
            yield_now().await;
            order.borrow_mut().push("after-yield");
            h.await;
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        assert_eq!(order, vec!["before-yield", "spawned", "after-yield"]);
    }

    #[test]
    fn dropping_sleep_cancels_timer() {
        let sim = Sim::new();
        sim.block_on(async {
            {
                let _s = sleep(secs(1000.0));
            }
            sleep(secs(1.0)).await;
        });
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::ZERO + secs(1.0));
    }
}
