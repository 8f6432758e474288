//! FIFO-fair counting semaphore in virtual time.
//!
//! Models capacity-limited servers: CPU cores on a node, HTCondor slots,
//! concurrent-request limits in a queue-proxy. Fairness is strict FIFO so
//! simulated queueing is reproducible and starvation-free.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct Waiter {
    want: usize,
    waker: Option<Waker>,
    /// Set when the semaphore hands this waiter its permits.
    granted: bool,
    /// Set when the acquire future is dropped before being granted.
    abandoned: bool,
}

struct State {
    available: usize,
    capacity: usize,
    queue: VecDeque<Rc<RefCell<Waiter>>>,
}

/// FIFO counting semaphore.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<State>>,
}

/// Permits held; released back on drop.
pub struct Permit {
    state: Rc<RefCell<State>>,
    count: usize,
}

impl Semaphore {
    /// Create with `capacity` permits available.
    pub fn new(capacity: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(State {
                available: capacity,
                capacity,
                queue: VecDeque::new(),
            })),
        }
    }

    /// Acquire one permit, waiting FIFO behind earlier requests.
    pub fn acquire(&self) -> Acquire {
        self.acquire_many(1)
    }

    /// Acquire `n` permits atomically. A request exceeding the capacity
    /// never fits, and the executor's deadlock detector fires.
    pub fn acquire_many(&self, n: usize) -> Acquire {
        Acquire {
            state: Rc::clone(&self.state),
            want: n,
            waiter: None,
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.state.borrow().available
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.state.borrow().capacity
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        self.state.borrow().queue.len()
    }
}

/// Hand out permits to the head of the FIFO queue while they fit.
fn grant_waiters(state: &Rc<RefCell<State>>) {
    loop {
        let waiter = {
            let mut s = state.borrow_mut();
            // Drop abandoned waiters at the head.
            while matches!(s.queue.front(), Some(w) if w.borrow().abandoned) {
                s.queue.pop_front();
            }
            if !matches!(s.queue.front(), Some(w) if w.borrow().want <= s.available) {
                return;
            }
            let Some(w) = s.queue.pop_front() else { return };
            s.available -= w.borrow().want;
            w
        };
        let waker = {
            let mut w = waiter.borrow_mut();
            w.granted = true;
            w.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.state.borrow_mut().available += self.count;
        grant_waiters(&self.state);
    }
}

impl Permit {
    /// Number of permits held.
    pub fn count(&self) -> usize {
        self.count
    }
}

/// Future returned by [`Semaphore::acquire`] / [`Semaphore::acquire_many`].
pub struct Acquire {
    state: Rc<RefCell<State>>,
    want: usize,
    waiter: Option<Rc<RefCell<Waiter>>>,
}

impl Future for Acquire {
    type Output = Permit;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        // Already queued: check grant.
        if let Some(w) = &self.waiter {
            let mut wb = w.borrow_mut();
            if wb.granted {
                wb.granted = false; // permit ownership moves to the Permit
                let state = Rc::clone(&self.state);
                let count = self.want;
                drop(wb);
                self.waiter = None;
                return Poll::Ready(Permit { state, count });
            }
            wb.waker = Some(cx.waker().clone());
            return Poll::Pending;
        }
        // First poll: fast path if nothing queued and permits fit.
        {
            let mut s = self.state.borrow_mut();
            if s.queue.is_empty() && s.available >= self.want {
                s.available -= self.want;
                return Poll::Ready(Permit {
                    state: Rc::clone(&self.state),
                    count: self.want,
                });
            }
            let waiter = Rc::new(RefCell::new(Waiter {
                want: self.want,
                waker: Some(cx.waker().clone()),
                granted: false,
                abandoned: false,
            }));
            s.queue.push_back(Rc::clone(&waiter));
            drop(s);
            self.waiter = Some(waiter);
        }
        Poll::Pending
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if let Some(w) = &self.waiter {
            let granted = {
                let mut wb = w.borrow_mut();
                wb.abandoned = true;
                wb.granted
            };
            if granted {
                // Permits were handed to us but never turned into a Permit:
                // return them.
                self.state.borrow_mut().available += self.want;
                grant_waiters(&self.state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, sleep, spawn, Sim};
    use crate::time::{secs, SimTime};

    #[test]
    fn serializes_access_to_capacity_one() {
        let sim = Sim::new();
        let finish_times = sim.block_on(async {
            let sem = Semaphore::new(1);
            let mut handles = Vec::new();
            for _ in 0..3 {
                let sem = sem.clone();
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    sleep(secs(1.0)).await;
                    now()
                }));
            }
            let mut out = Vec::new();
            for h in handles {
                out.push(h.await);
            }
            out
        });
        assert_eq!(
            finish_times,
            vec![
                SimTime::ZERO + secs(1.0),
                SimTime::ZERO + secs(2.0),
                SimTime::ZERO + secs(3.0)
            ]
        );
    }

    #[test]
    fn capacity_two_runs_pairs_concurrently() {
        let sim = Sim::new();
        let makespan = sim.block_on(async {
            let sem = Semaphore::new(2);
            let mut handles = Vec::new();
            for _ in 0..4 {
                let sem = sem.clone();
                handles.push(spawn(async move {
                    let _p = sem.acquire().await;
                    sleep(secs(1.0)).await;
                }));
            }
            for h in handles {
                h.await;
            }
            now()
        });
        assert_eq!(makespan, SimTime::ZERO + secs(2.0));
    }

    #[test]
    fn fifo_fairness_under_acquire_many() {
        let sim = Sim::new();
        let order = sim.block_on(async {
            let sem = Semaphore::new(2);
            let order = Rc::new(RefCell::new(Vec::new()));
            // Take both permits for 1s.
            let hold = {
                let sem = sem.clone();
                spawn(async move {
                    let _p = sem.acquire_many(2).await;
                    sleep(secs(1.0)).await;
                })
            };
            sleep(secs(0.1)).await;
            // Queue: big request (2) first, then small (1). FIFO means the
            // small one must NOT jump the big one.
            let big = {
                let sem = sem.clone();
                let order = Rc::clone(&order);
                spawn(async move {
                    let _p = sem.acquire_many(2).await;
                    order.borrow_mut().push("big");
                })
            };
            sleep(secs(0.1)).await;
            let small = {
                let sem = sem.clone();
                let order = Rc::clone(&order);
                spawn(async move {
                    let _p = sem.acquire().await;
                    order.borrow_mut().push("small");
                })
            };
            hold.await;
            big.await;
            small.await;
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        assert_eq!(order, vec!["big", "small"]);
    }

    /// Polls the wrapped future exactly once, then resolves.
    struct PollOnce<F: Future + Unpin>(F);
    impl<F: Future + Unpin> Future for PollOnce<F> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> std::task::Poll<()> {
            let _ = Pin::new(&mut self.0).poll(cx);
            std::task::Poll::Ready(())
        }
    }

    #[test]
    fn abandoned_waiter_does_not_block_queue() {
        let sim = Sim::new();
        sim.block_on(async {
            let sem = Semaphore::new(1);
            let p = sem.acquire().await;
            // Enqueue a waiter, then drop its Acquire future while queued.
            PollOnce(sem.acquire()).await;
            assert_eq!(sem.queue_len(), 1);
            // A later waiter must still get the permit when it frees up.
            let h = {
                let sem = sem.clone();
                spawn(async move {
                    let _p = sem.acquire().await;
                    now()
                })
            };
            sleep(secs(1.0)).await;
            drop(p);
            let t = h.await;
            assert_eq!(t, SimTime::ZERO + secs(1.0));
        });
    }

    #[test]
    fn queue_len_counts_waiters() {
        let sim = Sim::new();
        sim.block_on(async {
            let sem = Semaphore::new(1);
            let _p = sem.acquire().await;
            for _ in 0..5 {
                let sem = sem.clone();
                spawn(async move {
                    let _p = sem.acquire().await;
                });
            }
            sleep(secs(0.1)).await;
            assert_eq!(sem.queue_len(), 5);
        });
    }
}
