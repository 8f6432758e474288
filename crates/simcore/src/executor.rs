//! Deterministic single-threaded async executor over virtual time.
//!
//! The executor polls tasks from a FIFO ready queue. When no task is ready it
//! advances the virtual clock to the earliest pending timer and wakes the
//! sleepers registered for that instant. Within one instant, tasks run in the
//! order they were woken, and timers scheduled for the same instant fire in
//! the order they were created — so a run is a pure function of the program
//! and its RNG seeds.
//!
//! # Internals
//!
//! Three structures carry the hot path (see `DESIGN.md` §16 for the full
//! rationale; the pre-rewrite implementation survives verbatim as the
//! `swf-simref` oracle crate, and `tests/executor_equivalence.rs` proves the
//! two produce bit-identical schedules):
//!
//! - **Task slab**: tasks live in a `Vec` of slots recycled through a free
//!   list. A [`TaskId`] packs the slot index with a per-slot generation
//!   counter, so a waker aimed at a completed task can never reach the
//!   slot's next occupant.
//! - **Ready queue**: a `VecDeque` of `(slot index, generation)` pairs.
//!   Wakes are coalesced by a per-task `queued` flag (cleared when a poll
//!   starts), so a task is enqueued at most once per poll round; the
//!   generation is checked when an entry is pushed and again when it is
//!   popped, so an entry that outlives its task is skipped.
//! - **Timer heap**: pending timers sit in a `BinaryHeap` keyed by
//!   `(at, seq)` — the structure the oracle has always used. Cancellation
//!   is lazy, and same-instant ties are neighbouring keys popped in
//!   registration order.

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::error::SimError;
use crate::time::{SimDuration, SimTime};

/// Identifier of a spawned task: the slab slot index in the low 32 bits and
/// the slot's generation at spawn time in the high 32 bits. Ids are unique
/// across a simulation's lifetime even though slots are recycled.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TaskId(pub u64);

impl TaskId {
    fn pack(index: u32, gen: u32) -> TaskId {
        TaskId((u64::from(gen) << 32) | u64::from(index))
    }
}

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Sentinel for "no slot" in the free list.
const NONE_IDX: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Wakers
// ---------------------------------------------------------------------------

/// Wake-side state of one task, shared by every `Waker` clone handed out
/// during that task's polls.
struct WakerData {
    exec: Weak<Inner>,
    index: u32,
    gen: u32,
    /// Coalesces wakes between polls: set when the task is enqueued,
    /// cleared at the start of its next poll, so however many timers and
    /// channels wake a task in one round, it occupies exactly one ready
    /// entry. On a completed task the flag latches `true`, making every
    /// later stale wake a no-op.
    queued: Cell<bool>,
}

impl WakerData {
    fn wake(&self) {
        if !self.queued.replace(true) {
            crate::perf::note_wake();
            if let Some(inner) = self.exec.upgrade() {
                inner.ready_push(self.index, self.gen);
            }
        }
    }

    fn waker(self: &Rc<Self>) -> Waker {
        // SAFETY: the vtable below upholds the RawWaker contract over a
        // plain `Rc` (see VTABLE).
        unsafe { Waker::from_raw(raw_waker(self)) }
    }
}

// SAFETY: `Waker` is nominally `Send + Sync`, but this executor is strictly
// single-threaded — the root `clippy.toml` bans `std::thread::spawn`,
// `std::thread::scope` and `std::thread::Builder::spawn` in every crate the
// CI clippy job lints, so a waker can never leave the thread it was
// created on. The vtable therefore manages a plain `Rc<WakerData>` by hand:
// `clone` bumps the strong count, `wake` consumes one reference,
// `wake_by_ref` borrows without consuming, `drop` releases. The previous
// implementation satisfied the same contract with an `Arc` + `Mutex`d queue
// whose lock was never contended; this removes both from the hot path.
const VTABLE: RawWakerVTable = RawWakerVTable::new(vt_clone, vt_wake, vt_wake_by_ref, vt_drop);

fn raw_waker(data: &Rc<WakerData>) -> RawWaker {
    RawWaker::new(Rc::into_raw(Rc::clone(data)).cast(), &VTABLE)
}

unsafe fn vt_clone(ptr: *const ()) -> RawWaker {
    Rc::increment_strong_count(ptr.cast::<WakerData>());
    RawWaker::new(ptr, &VTABLE)
}

unsafe fn vt_wake(ptr: *const ()) {
    Rc::from_raw(ptr.cast::<WakerData>()).wake();
}

unsafe fn vt_wake_by_ref(ptr: *const ()) {
    ManuallyDrop::new(Rc::from_raw(ptr.cast::<WakerData>())).wake();
}

unsafe fn vt_drop(ptr: *const ()) {
    drop(Rc::from_raw(ptr.cast::<WakerData>()));
}

// ---------------------------------------------------------------------------
// Task slab
// ---------------------------------------------------------------------------

/// A task's future plus its shared waker state.
struct TaskCell {
    /// Taken out for the duration of a poll, so task code may reentrantly
    /// use the slab (spawn, wake) while its own future runs.
    fut: Option<LocalFuture>,
    waker: Rc<WakerData>,
}

/// Occupancy of one slab slot.
enum SlotState {
    /// Free; `next_free` chains the free list.
    Vacant { next_free: u32 },
    /// A spawned, not-yet-completed task.
    Live(TaskCell),
}

struct Slot {
    /// Bumped when the slot is freed; wakers carry the generation they
    /// were created under and are ignored once it goes stale.
    gen: u32,
    state: SlotState,
}

struct Inner {
    clock: Cell<SimTime>,
    tasks: RefCell<Vec<Slot>>,
    /// Head of the vacant-slot free list.
    free_head: Cell<u32>,
    /// FIFO ready queue of `(slot index, generation)`.
    ready: RefCell<VecDeque<(u32, u32)>>,
    live_tasks: Cell<usize>,
    timers: RefCell<TimerHeap>,
    next_timer_seq: Cell<u64>,
    steps: Cell<u64>,
    step_limit: Cell<u64>,
    spawned_total: Cell<u64>,
}

impl Inner {
    /// Is `index` occupied by a live task of generation `gen`?
    fn is_live(&self, index: u32, gen: u32) -> bool {
        matches!(
            self.tasks.borrow().get(index as usize),
            Some(slot) if slot.gen == gen && matches!(slot.state, SlotState::Live(_))
        )
    }

    /// Enqueue a live task. Stale wakes — generation mismatch or a vacated
    /// slot — fall through silently.
    fn ready_push(&self, index: u32, gen: u32) {
        if !self.is_live(index, gen) {
            return;
        }
        let mut ready = self.ready.borrow_mut();
        ready.push_back((index, gen));
        crate::perf::note_ready_depth(ready.len());
    }

    /// Dequeue the next live task. A task that re-woke itself during its
    /// final poll leaves an entry behind; its generation no longer matches
    /// the slot (or the slot's next tenant), so it is dropped here.
    fn ready_pop(&self) -> Option<u32> {
        loop {
            let (index, gen) = self.ready.borrow_mut().pop_front()?;
            if self.is_live(index, gen) {
                return Some(index);
            }
        }
    }
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
#[expect(clippy::expect_used, reason = "the documented `# Panics` above")]
pub fn current() -> Sim {
    CURRENT.with(|c| {
        c.borrow()
            .last()
            .cloned()
            .expect("swf-simcore: no simulation is running on this thread")
    })
}

/// The simulation handle of the currently running task, or `None` when no
/// simulation is active on this thread (e.g. during `Sim` teardown, when
/// leftover task futures are dropped outside the run loop).
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
                tasks: RefCell::new(Vec::new()),
                free_head: Cell::new(NONE_IDX),
                ready: RefCell::new(VecDeque::new()),
                live_tasks: Cell::new(0),
                timers: RefCell::new(TimerHeap::default()),
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
        self.inner.live_tasks.get()
    }

    /// Cap the number of task polls; exceeding it panics. A guard against
    /// accidental infinite wake loops in model code.
    pub fn set_step_limit(&self, limit: u64) {
        self.inner.step_limit.set(limit);
    }

    /// Spawn a task. The task starts the next time the executor runs.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.inner
            .spawned_total
            .set(self.inner.spawned_total.get() + 1);
        crate::perf::note_spawn();

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

        let (index, gen) = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let index = match self.inner.free_head.get() {
                NONE_IDX => {
                    tasks.push(Slot {
                        gen: 0,
                        state: SlotState::Vacant {
                            next_free: NONE_IDX,
                        },
                    });
                    (tasks.len() - 1) as u32
                }
                idx => {
                    let next = match tasks[idx as usize].state {
                        SlotState::Vacant { next_free } => next_free,
                        // Unreachable: the free list only chains vacant slots.
                        SlotState::Live(_) => NONE_IDX,
                    };
                    self.inner.free_head.set(next);
                    idx
                }
            };
            let gen = tasks[index as usize].gen;
            let waker = Rc::new(WakerData {
                exec: Rc::downgrade(&self.inner),
                index,
                gen,
                queued: Cell::new(true), // enqueued right below
            });
            tasks[index as usize].state = SlotState::Live(TaskCell {
                fut: Some(wrapped),
                waker,
            });
            (index, gen)
        };
        self.inner.live_tasks.set(self.inner.live_tasks.get() + 1);
        self.inner.ready_push(index, gen);
        JoinHandle {
            state: result,
            id: TaskId::pack(index, gen),
        }
    }

    /// Register a timer at absolute time `at`; used by `sleep` and friends.
    pub(crate) fn register_timer(&self, at: SimTime) -> TimerHandle {
        let seq = self.inner.next_timer_seq.get();
        self.inner.next_timer_seq.set(seq + 1);
        crate::perf::note_timer_registered();
        let state = Rc::new(TimerState {
            waker: RefCell::new(None),
            fired: Cell::new(at <= self.now()),
            cancelled: Cell::new(false),
        });
        if state.fired.get() {
            // Born fired: a deadline at or before now never enters the heap.
            crate::perf::note_timer_fired();
        } else {
            self.inner
                .timers
                .borrow_mut()
                .push(at, seq, Rc::clone(&state));
        }
        TimerHandle { state }
    }

    #[expect(
        clippy::panic,
        reason = "the step limit is the wake-loop backstop and `run_until_idle` returns no error"
    )]
    fn poll_one(&self, index: u32) {
        let (mut fut, waker) = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(index as usize) else {
                return;
            };
            let SlotState::Live(cell) = &mut slot.state else {
                return;
            };
            let Some(fut) = cell.fut.take() else {
                return;
            };
            // Clear the coalescing flag before polling so a wake arriving
            // mid-poll re-enqueues the task for another round.
            cell.waker.queued.set(false);
            (fut, Rc::clone(&cell.waker))
        };
        crate::perf::note_poll();
        let steps = self.inner.steps.get() + 1;
        self.inner.steps.set(steps);
        if steps > self.inner.step_limit.get() {
            panic!(
                "swf-simcore: step limit {} exceeded (possible wake loop); {} live tasks",
                self.inner.step_limit.get(),
                self.live_tasks()
            );
        }
        let w = waker.waker();
        let mut cx = Context::from_waker(&w);
        match fut.as_mut().poll(&mut cx) {
            Poll::Pending => {
                let mut tasks = self.inner.tasks.borrow_mut();
                if let Some(slot) = tasks.get_mut(index as usize) {
                    if let SlotState::Live(cell) = &mut slot.state {
                        cell.fut = Some(fut);
                    }
                }
            }
            Poll::Ready(()) => {
                self.retire(index);
                // `fut` itself drops at the end of this call, after the
                // slab borrow is released, so destructors may spawn/wake.
            }
        }
    }

    /// Free a completed task's slot. Bumping the generation is what turns
    /// every waker and ready entry still aimed at the task stale.
    fn retire(&self, index: u32) {
        let mut tasks = self.inner.tasks.borrow_mut();
        if let Some(slot) = tasks.get_mut(index as usize) {
            slot.gen = slot.gen.wrapping_add(1);
            slot.state = SlotState::Vacant {
                next_free: self.inner.free_head.get(),
            };
            self.inner.free_head.set(index);
        }
        self.inner
            .live_tasks
            .set(self.inner.live_tasks.get().saturating_sub(1));
    }

    /// Fire every timer scheduled for the earliest pending instant, advancing
    /// the clock to it. Returns false if no timers remain.
    fn advance_to_next_timer(&self) -> bool {
        let Some(at) = self.inner.timers.borrow_mut().next_deadline() else {
            return false;
        };
        debug_assert!(at >= self.now(), "timer in the past");
        self.inner.clock.set(at);
        crate::perf::note_clock_advance();
        loop {
            // One borrow per pop: the heap is not held while a waker runs.
            let Some(entry) = self.inner.timers.borrow_mut().pop_due(at) else {
                break;
            };
            entry.state.fired.set(true);
            crate::perf::note_timer_fired();
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
            while let Some(index) = self.inner.ready_pop() {
                self.poll_one(index);
            }
            if !self.advance_to_next_timer() {
                break;
            }
        }
    }

    /// Run the future to completion on this simulation, driving all spawned
    /// tasks as needed. Returns as soon as the future completes, even if
    /// other spawned tasks (e.g. controller loops with periodic timers) are
    /// still live — exactly like a conventional runtime's `block_on`.
    ///
    /// # Panics
    /// Panics if the simulation goes idle (no runnable task, no pending
    /// timer) before the future completes — i.e. the program deadlocked in
    /// virtual time. Harnesses that expect stalls can use
    /// [`Sim::try_block_on`] instead.
    pub fn block_on<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        match self.try_block_on(fut) {
            Ok(out) => out,
            #[expect(clippy::panic, reason = "the documented `# Panics` above")]
            Err(e) => panic!("swf-simcore: {e}"),
        }
    }

    /// Like [`Sim::block_on`], but a virtual-time deadlock is reported as
    /// [`SimError::Deadlock`] instead of a panic.
    pub fn try_block_on<F>(&self, fut: F) -> Result<F::Output, SimError>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let handle = self.spawn(fut);
        let _guard = enter(self);
        loop {
            while let Some(index) = self.inner.ready_pop() {
                self.poll_one(index);
            }
            if handle.is_finished() {
                break;
            }
            if !self.advance_to_next_timer() {
                break;
            }
        }
        handle.try_take().ok_or_else(|| SimError::Deadlock {
            at: self.now(),
            live_tasks: self.live_tasks(),
        })
    }
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

/// Per-timer flags shared between the heap entry and the owning future.
struct TimerState {
    /// Waker of the task awaiting this timer, if it has been polled.
    waker: RefCell<Option<Waker>>,
    /// Set when the deadline is reached (or at registration, for a
    /// deadline at or before now).
    fired: Cell<bool>,
    /// Set by [`TimerHandle::cancel`]; the heap drops the entry lazily.
    cancelled: Cell<bool>,
}

/// One pending timer. The ordering is reversed so that the earliest
/// `(at, seq)` is the `BinaryHeap`'s maximum.
struct TimerEntry {
    at: SimTime,
    /// Registration sequence number; ties on `at` fire in `seq` order.
    seq: u64,
    state: Rc<TimerState>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The executor's pending-timer store: a binary heap on `(at, seq)` with
/// lazy cancellation, as in the `swf-simref` oracle.
#[derive(Default)]
struct TimerHeap {
    heap: BinaryHeap<TimerEntry>,
}

impl TimerHeap {
    fn push(&mut self, at: SimTime, seq: u64, state: Rc<TimerState>) {
        self.heap.push(TimerEntry { at, seq, state });
    }

    /// The earliest live deadline. Cancelled entries at the top are dropped
    /// on the way, so the caller's clock never advances to an instant at
    /// which only cancelled timers were due.
    fn next_deadline(&mut self) -> Option<SimTime> {
        loop {
            let top = self.heap.peek()?;
            if !top.state.cancelled.get() {
                return Some(top.at);
            }
            self.heap.pop();
        }
    }

    /// Pop the next live timer due exactly at `at`; successive calls yield
    /// the instant's timers in registration order, then `None`.
    fn pop_due(&mut self, at: SimTime) -> Option<TimerEntry> {
        while self.heap.peek()?.at == at {
            let entry = self.heap.pop()?;
            if !entry.state.cancelled.get() {
                return Some(entry);
            }
        }
        None
    }
}

pub(crate) struct TimerHandle {
    state: Rc<TimerState>,
}

impl TimerHandle {
    pub(crate) fn fired(&self) -> bool {
        self.state.fired.get()
    }

    pub(crate) fn set_waker(&self, waker: &Waker) {
        *self.state.waker.borrow_mut() = Some(waker.clone());
    }

    pub(crate) fn cancel(&self) {
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
        if !matches!(&*s, JoinState::Done(_)) {
            return None;
        }
        match std::mem::replace(&mut *s, JoinState::Taken) {
            JoinState::Done(v) => Some(v),
            JoinState::Pending(_) | JoinState::Taken => None,
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
        if let JoinState::Pending(w) = &mut *s {
            *w = Some(cx.waker().clone());
            return Poll::Pending;
        }
        match std::mem::replace(&mut *s, JoinState::Taken) {
            JoinState::Done(v) => Poll::Ready(v),
            #[expect(
                clippy::panic,
                reason = "polling a future again after `Ready` breaks the `Future` contract"
            )]
            JoinState::Pending(_) | JoinState::Taken => {
                panic!("JoinHandle polled after completion")
            }
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

/// A fixed-rate virtual ticker: each [`tick`](Interval::tick) completes
/// at the next multiple of the period from the ticker's creation, so a
/// periodic task (e.g. the swf-obs snapshot scheduler) fires on an
/// exact, drift-free grid regardless of how long its body appears to
/// take between awaits. Each tick registers one timer.
pub struct Interval {
    next: SimTime,
    period: SimDuration,
}

/// Create a ticker firing every `period`, first at `now + period`.
/// Must be called inside a running simulation. A zero period would spin
/// the executor without advancing time, so it panics loudly instead.
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
    use crate::time::secs;

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
    fn spawned_tasks_interleave_deterministically() {
        let sim = Sim::new();
        let log = sim.block_on(async {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut handles = Vec::new();
            for i in 0..3u32 {
                let log = Rc::clone(&log);
                handles.push(spawn(async move {
                    sleep(secs(f64::from(3 - i))).await;
                    log.borrow_mut().push(i);
                }));
            }
            for h in handles {
                h.await;
            }
            Rc::try_unwrap(log).unwrap().into_inner()
        });
        // Shorter sleeps fire first: i=2 slept 1s, i=1 slept 2s, i=0 slept 3s.
        assert_eq!(log, vec![2, 1, 0]);
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
    fn join_handle_before_and_after_completion() {
        let sim = Sim::new();
        sim.block_on(async {
            let h = spawn(async {
                sleep(secs(1.0)).await;
                7
            });
            assert!(!h.is_finished());
            assert_eq!(h.try_take(), None);
            let v = h.await;
            assert_eq!(v, 7);
        });
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn deadlock_is_detected() {
        let sim = Sim::new();
        sim.block_on(async {
            // A hole: pending forever with no timer.
            std::future::pending::<()>().await;
        });
    }

    #[test]
    fn try_block_on_reports_deadlock_as_error() {
        let sim = Sim::new();
        let err = sim
            .try_block_on(async {
                sleep(secs(3.0)).await;
                std::future::pending::<()>().await;
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                at: SimTime::ZERO + secs(3.0),
                live_tasks: 1,
            }
        );
    }

    #[test]
    fn zero_duration_sleep_completes() {
        let sim = Sim::new();
        sim.block_on(async {
            sleep(SimDuration::ZERO).await;
            sleep_until(now()).await;
        });
        assert_eq!(sim.now(), SimTime::ZERO);
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
                // dropped without await
            }
            sleep(secs(1.0)).await;
        });
        // run_until_idle should not advance to the cancelled 1000s timer.
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::ZERO + secs(1.0));
    }

    #[test]
    fn block_on_stops_at_the_live_deadline_not_a_cancelled_earlier_one() {
        let sim = Sim::new();
        let before = crate::perf::snapshot();
        sim.block_on(async {
            drop(sleep(secs(1.0)));
            sleep(secs(5.0)).await;
        });
        assert_eq!(sim.now(), SimTime::ZERO + secs(5.0));
        // One advance: the cancelled 1 s deadline was not visited on the way.
        let advances = crate::perf::snapshot().delta(&before).clock_advances;
        assert_eq!(advances, 1);
    }

    #[test]
    #[should_panic(expected = "step limit")]
    fn step_limit_catches_wake_loops() {
        let sim = Sim::new();
        sim.set_step_limit(100);
        sim.block_on(async {
            loop {
                yield_now().await;
            }
        });
    }

    #[test]
    fn many_tasks_complete() {
        let sim = Sim::new();
        let total = sim.block_on(async {
            let mut handles = Vec::new();
            for i in 0..1000u64 {
                handles.push(spawn(async move {
                    sleep(SimDuration::from_nanos(i % 7)).await;
                    i
                }));
            }
            let mut sum = 0;
            for h in handles {
                sum += h.await;
            }
            sum
        });
        assert_eq!(total, 499_500);
        assert_eq!(sim.live_tasks(), 0);
    }

    // -- slab-reuse and wake-coalescing regression tests ------------------

    /// Future that stashes its task's waker on first poll, then completes.
    struct CaptureWaker(Rc<RefCell<Option<Waker>>>);

    impl Future for CaptureWaker {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            *self.0.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }
    }

    /// Future that counts its polls and waits on a shared flag.
    struct FlagWait {
        flag: Rc<Cell<bool>>,
        polls: Rc<Cell<u32>>,
        waker: Rc<RefCell<Option<Waker>>>,
    }

    impl Future for FlagWait {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            if self.flag.get() {
                Poll::Ready(())
            } else {
                *self.waker.borrow_mut() = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    #[test]
    fn stale_waker_does_not_wake_slab_reuser() {
        // Task A completes and its slot is recycled by task B. A waker
        // captured while A was live carries A's generation; invoking it
        // after the recycle must not poll B.
        let sim = Sim::new();
        sim.block_on(async {
            let stale: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
            let s2 = Rc::clone(&stale);
            let a = spawn(CaptureWaker(s2));
            a.await; // A's slot is now on the free list

            let flag = Rc::new(Cell::new(false));
            let polls = Rc::new(Cell::new(0));
            let b_waker: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
            let b = spawn(FlagWait {
                flag: Rc::clone(&flag),
                polls: Rc::clone(&polls),
                waker: Rc::clone(&b_waker),
            });
            yield_now().await; // B polls once and parks
            assert_eq!(polls.get(), 1);

            let w = stale.borrow_mut().take().unwrap();
            w.wake(); // aimed at A's (index, generation)
            yield_now().await;
            yield_now().await;
            assert_eq!(polls.get(), 1, "stale wake polled the slot's new occupant");

            flag.set(true);
            b_waker.borrow_mut().take().unwrap().wake();
            b.await;
            assert_eq!(polls.get(), 2);
        });
    }

    /// Future that wakes itself twice mid-poll, then completes on the next.
    struct DoubleWake {
        polls: Rc<Cell<u32>>,
    }

    impl Future for DoubleWake {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            self.polls.set(self.polls.get() + 1);
            if self.polls.get() == 1 {
                // Two wakes race the in-progress poll: coalescing must
                // collapse them into exactly one re-poll, not zero.
                cx.waker().wake_by_ref();
                cx.waker().wake_by_ref();
                Poll::Pending
            } else {
                Poll::Ready(())
            }
        }
    }

    #[test]
    fn wake_racing_a_poll_is_coalesced_not_dropped() {
        let sim = Sim::new();
        let polls = Rc::new(Cell::new(0));
        let p2 = Rc::clone(&polls);
        sim.block_on(DoubleWake { polls: p2 });
        assert_eq!(
            polls.get(),
            2,
            "mid-poll wakes must coalesce to one re-poll"
        );
    }

    /// Future that wakes itself and completes in the same poll.
    struct WakeThenDone;

    impl Future for WakeThenDone {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            cx.waker().wake_by_ref();
            Poll::Ready(())
        }
    }

    #[test]
    fn task_completing_while_requeued_retires_safely() {
        // A task that wakes itself and then completes leaves a stale entry
        // in the ready queue while its slot goes straight back on the free
        // list. The next spawn takes that slot before the entry is popped;
        // the entry's generation must keep it from polling the new tenant.
        let sim = Sim::new();
        sim.block_on(async {
            let h = spawn(WakeThenDone);
            yield_now().await; // `h` runs; its stale entry queues behind us
            let flag = Rc::new(Cell::new(false));
            let polls = Rc::new(Cell::new(0));
            let waker: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
            let h2 = spawn(FlagWait {
                flag: Rc::clone(&flag),
                polls: Rc::clone(&polls),
                waker: Rc::clone(&waker),
            });
            assert_eq!(h2.id().0 & 0xffff_ffff, h.id().0 & 0xffff_ffff);
            yield_now().await; // the stale entry is popped, then `h2` polls
            yield_now().await;
            assert_eq!(polls.get(), 1, "stale entry polled the slot's new tenant");
            flag.set(true);
            waker.borrow_mut().take().unwrap().wake();
            h2.await;
            assert_eq!(polls.get(), 2);
            h.await;
        });
        assert_eq!(sim.live_tasks(), 0);
    }

    // -- timer store: behaviour against a sorted-`Vec` oracle --------------

    fn state() -> Rc<TimerState> {
        Rc::new(TimerState {
            waker: RefCell::new(None),
            fired: Cell::new(false),
            cancelled: Cell::new(false),
        })
    }

    impl TimerHeap {
        fn insert(&mut self, at: u64, seq: u64, state: Rc<TimerState>) {
            self.push(SimTime::from_nanos(at), seq, state);
        }

        /// One advance as `advance_to_next_timer` makes it: the earliest
        /// live instant and the `seq`s fired at it, in firing order.
        fn pop_next_due(&mut self) -> Option<(u64, Vec<u64>)> {
            let at = self.next_deadline()?;
            let seqs = std::iter::from_fn(|| self.pop_due(at)).map(|e| e.seq);
            Some((at.as_nanos(), seqs.collect()))
        }
    }

    /// The oracle: a plain vector, sorted by `(at, seq)` on every pop.
    type Oracle = Vec<(u64, u64, Rc<TimerState>)>;

    fn oracle_pop_next_due(entries: &mut Oracle) -> Option<(u64, Vec<u64>)> {
        entries.retain(|(_, _, s)| !s.cancelled.get());
        entries.sort_by_key(|&(at, seq, _)| (at, seq));
        let at = entries.first()?.0;
        let due = entries.iter().take_while(|e| e.0 == at).count();
        Some((at, entries.drain(..due).map(|e| e.1).collect()))
    }

    #[test]
    fn same_deadline_fires_in_registration_order() {
        let mut timers = TimerHeap::default();
        let at = 3_000_000_007;
        // Pushed in reverse so heap order, not push order, decides.
        for seq in (0..10u64).rev() {
            timers.insert(at, seq, state());
        }
        assert_eq!(timers.pop_next_due(), Some((at, (0..10).collect())));
        assert_eq!(timers.pop_next_due(), None);
    }

    #[test]
    fn cancelled_only_deadlines_never_surface() {
        let mut timers = TimerHeap::default();
        let doomed = state();
        timers.insert(500, 0, Rc::clone(&doomed));
        timers.insert(900, 1, state());
        doomed.cancelled.set(true);
        // The cancelled 500ns deadline is skipped without being reported.
        assert_eq!(timers.pop_next_due(), Some((900, vec![1])));
        assert_eq!(timers.pop_next_due(), None);
    }

    #[test]
    fn cancel_then_reinsert_at_same_deadline() {
        let mut timers = TimerHeap::default();
        let doomed = state();
        timers.insert(1_000_000, 0, state());
        timers.insert(1_000_000, 1, Rc::clone(&doomed));
        doomed.cancelled.set(true);
        timers.insert(1_000_000, 2, state());
        // Cancelled in the middle of its instant's batch, not at the top.
        assert_eq!(timers.pop_next_due(), Some((1_000_000, vec![0, 2])));
        assert_eq!(timers.pop_next_due(), None);
    }

    #[test]
    fn insert_after_cancelled_drain_fires_at_its_deadline() {
        // Draining a cancelled far-future timer must leave nothing behind
        // that strands an earlier timer inserted afterwards.
        let mut timers = TimerHeap::default();
        let doomed = state();
        timers.insert(1_000_000_000_000, 0, Rc::clone(&doomed));
        doomed.cancelled.set(true);
        assert_eq!(timers.pop_next_due(), None);
        timers.insert(1_000, 1, state());
        assert_eq!(timers.pop_next_due(), Some((1_000, vec![1])));
    }

    #[test]
    fn randomized_programs_match_sorted_vec_oracle() {
        // Seeded insert/cancel/advance programs, heap vs oracle in
        // lockstep. Durations mix a coarse grid (forcing same-deadline
        // ties), fine offsets, and far-future outliers.
        for seed in 0..64u64 {
            let mut rng = crate::rng::DetRng::new(seed, "timer-store-property");
            let mut timers = TimerHeap::default();
            let mut oracle = Oracle::new();
            let mut live: Vec<Rc<TimerState>> = Vec::new();
            let mut now = 0u64;
            let advance = |timers: &mut TimerHeap, oracle: &mut Oracle| {
                let got = timers.pop_next_due();
                assert_eq!(got, oracle_pop_next_due(oracle), "seed {seed}");
                got.map(|(at, _)| at)
            };
            for seq in 0..400 {
                match rng.uniform_u64(0, 10) {
                    // insert (weighted heaviest)
                    0..=5 => {
                        let d = match rng.uniform_u64(0, 4) {
                            0 => 250_000_000 * rng.uniform_u64(1, 16), // coarse grid: ties
                            1 => rng.uniform_u64(1, 5_000_000_000),    // fine
                            2 => 1_000_000_000 * rng.uniform_u64(1, 300),
                            _ => 1_000_000_000 * rng.uniform_u64(1, 20_000), // far future
                        };
                        let s = state();
                        timers.insert(now + d, seq, Rc::clone(&s));
                        oracle.push((now + d, seq, Rc::clone(&s)));
                        live.push(s);
                    }
                    // cancel a random live timer
                    6..=7 if !live.is_empty() => {
                        let idx = rng.index(live.len());
                        live.swap_remove(idx).cancelled.set(true);
                    }
                    6..=7 => {}
                    // advance one batch
                    _ => {
                        now = advance(&mut timers, &mut oracle).unwrap_or(now);
                    }
                }
            }
            // Drain to empty: both sides must agree on every remaining batch.
            while advance(&mut timers, &mut oracle).is_some() {}
        }
    }
}
