//! Versioned broadcast wake-up: the "something changed, re-reconcile"
//! signal under every level-triggered control loop.
//!
//! A [`Watch`] is a version counter. [`Watch::bump`] advances it and wakes
//! every registered waiter, in registration order; [`Watch::changed`]
//! resolves with the current version once it is past the version the
//! caller last saw. A waiter dropped before it resolves is skipped and
//! hands nothing on. There is no stored permit and no single-waiter wake:
//! a broadcast that nobody is waiting for needs no record, because the
//! version already says it happened.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};

/// A version counter whose bumps wake every waiter.
#[derive(Default)]
pub struct Watch {
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    version: u64,
    /// Wakers of the waiters registered since the last bump, in
    /// registration order; a waiter dropped unwoken leaves `None` behind.
    waiters: Vec<Option<Waker>>,
}

impl Watch {
    /// A watch at version 0 with no waiters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current version: the number of bumps so far.
    pub fn version(&self) -> u64 {
        self.state.borrow().version
    }

    /// Advance the version and wake every registered waiter, in the order
    /// they registered.
    pub fn bump(&self) {
        let mut wakers = {
            let mut s = self.state.borrow_mut();
            s.version += 1;
            std::mem::take(&mut s.waiters)
        };
        for waker in wakers.drain(..).flatten() {
            waker.wake();
        }
        // Hand the emptied buffer back, so registrations after a bump do
        // not allocate.
        let mut s = self.state.borrow_mut();
        if s.waiters.is_empty() {
            s.waiters = wakers;
        }
    }

    /// Resolves with the version: at once, without registering, when it
    /// is past `seen`, and otherwise at the next bump.
    pub fn changed(&self, seen: u64) -> Changed<'_> {
        Changed {
            watch: self,
            seen,
            slot: None,
        }
    }
}

/// Future returned by [`Watch::changed`].
pub struct Changed<'a> {
    watch: &'a Watch,
    /// The version to get past; once registered, the version then.
    seen: u64,
    /// This waiter's index in the waiter list, valid until the next bump
    /// empties the list and moves the version past `seen`.
    slot: Option<usize>,
}

impl Future for Changed<'_> {
    type Output = u64;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u64> {
        let watch = self.watch;
        let mut s = watch.state.borrow_mut();
        if s.version > self.seen {
            self.slot = None;
            return Poll::Ready(s.version);
        }
        let waker = Some(cx.waker().clone());
        match self.slot.and_then(|i| s.waiters.get_mut(i)) {
            Some(registered) => *registered = waker,
            None => {
                self.seen = s.version;
                self.slot = Some(s.waiters.len());
                s.waiters.push(waker);
            }
        }
        Poll::Pending
    }
}

impl Drop for Changed<'_> {
    fn drop(&mut self) {
        let Some(i) = self.slot else { return };
        let mut s = self.watch.state.borrow_mut();
        // No bump since registering, so the slot is still ours: clear it
        // and the next bump skips it.
        if s.version <= self.seen {
            if let Some(registered) = s.waiters.get_mut(i) {
                *registered = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{now, sleep, spawn, Sim};
    use crate::time::{secs, SimTime};
    use crate::{race, Either};
    use std::rc::Rc;

    #[test]
    fn bump_wakes_every_waiter_in_registration_order() {
        let sim = Sim::new();
        let order = sim.block_on(async {
            let watch = Rc::new(Watch::new());
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..4 {
                let (watch, order) = (Rc::clone(&watch), Rc::clone(&order));
                spawn(async move {
                    // Stagger registration so it runs 3, 2, 1, 0.
                    sleep(secs(f64::from(4 - i))).await;
                    let v = watch.changed(0).await;
                    order.borrow_mut().push((i, v, now()));
                });
            }
            sleep(secs(10.0)).await;
            watch.bump();
            sleep(secs(1.0)).await;
            Rc::try_unwrap(order).unwrap().into_inner()
        });
        let at = SimTime::ZERO + secs(10.0);
        assert_eq!(order, vec![(3, 1, at), (2, 1, at), (1, 1, at), (0, 1, at)]);
    }

    #[test]
    fn changed_past_seen_is_ready_without_registering() {
        let sim = Sim::new();
        sim.block_on(async {
            let watch = Watch::new();
            watch.bump();
            watch.bump();
            assert_eq!(watch.changed(0).await, 2);
            assert_eq!(watch.changed(1).await, 2);
            assert!(watch.state.borrow().waiters.is_empty());
        });
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn a_cancelled_waiter_is_skipped() {
        let sim = Sim::new();
        sim.block_on(async {
            let watch = Rc::new(Watch::new());
            // Registers, then loses its race to a timer and is dropped.
            let lost = race(watch.changed(0), sleep(secs(1.0))).await;
            assert!(matches!(lost, Either::Right(())));
            assert_eq!(watch.state.borrow().waiters.len(), 1);
            assert!(watch.state.borrow().waiters[0].is_none());
            let later = {
                let watch = Rc::clone(&watch);
                spawn(async move { (watch.changed(0).await, now()) })
            };
            sleep(secs(1.0)).await;
            watch.bump();
            assert_eq!(later.await, (1, SimTime::ZERO + secs(2.0)));
        });
    }

    #[test]
    fn nothing_is_stored_for_a_later_waiter() {
        let sim = Sim::new();
        sim.block_on(async {
            let watch = Rc::new(Watch::new());
            watch.bump(); // nobody waiting: only the version moves
            let waiter = {
                let watch = Rc::clone(&watch);
                spawn(async move { (watch.changed(1).await, now()) })
            };
            sleep(secs(3.0)).await;
            watch.bump();
            assert_eq!(waiter.await, (2, SimTime::ZERO + secs(3.0)));
        });
    }

    /// A `seen` ahead of the version waits for the next bump only.
    #[test]
    fn a_waiter_ahead_of_the_version_resolves_at_the_next_bump() {
        let sim = Sim::new();
        sim.block_on(async {
            let watch = Rc::new(Watch::new());
            let ahead = {
                let watch = Rc::clone(&watch);
                spawn(async move { (watch.changed(5).await, now()) })
            };
            sleep(secs(1.0)).await;
            watch.bump();
            assert_eq!(ahead.await, (1, SimTime::ZERO + secs(1.0)));
        });
    }
}
