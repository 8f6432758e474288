//! A capacity-`k` FIFO service station with built-in queueing statistics.
//!
//! This wraps [`Semaphore`] with measurement: wait
//! times, service times, utilization. It is the standard building block for
//! modelled hardware: CPU cores, disk channels, network links, registry
//! bandwidth.

use std::cell::RefCell;
use std::rc::Rc;

use crate::executor::{now, sleep};
use crate::sync::semaphore::{Permit, Semaphore};
use crate::time::{SimDuration, SimTime};

#[derive(Default, Clone, Debug)]
struct Stats {
    served: u64,
    total_service: SimDuration,
    max_wait: SimDuration,
    busy_time: SimDuration,
    last_change: SimTime,
    in_service: usize,
}

/// FIFO resource with `capacity` parallel servers.
#[derive(Clone)]
pub struct Resource {
    name: Rc<str>,
    sem: Semaphore,
    stats: Rc<RefCell<Stats>>,
}

/// A claim on one server of a [`Resource`]; released on drop.
pub struct Claim {
    _permit: Permit,
    stats: Rc<RefCell<Stats>>,
    acquired_at: SimTime,
}

impl Resource {
    /// Create a named resource with `capacity` servers.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        Resource {
            name: Rc::from(name.into()),
            sem: Semaphore::new(capacity),
            stats: Rc::new(RefCell::new(Stats::default())),
        }
    }

    /// The resource's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total server count.
    pub fn capacity(&self) -> usize {
        self.sem.capacity()
    }

    /// Servers currently free.
    pub fn available(&self) -> usize {
        self.sem.available()
    }

    /// Requests waiting in the FIFO queue.
    pub fn queue_len(&self) -> usize {
        self.sem.queue_len()
    }

    /// Acquire one server, FIFO behind earlier requests.
    pub async fn acquire(&self) -> Claim {
        let requested = now();
        let permit = self.sem.acquire().await;
        let acquired = now();
        let wait = acquired - requested;
        {
            let mut st = self.stats.borrow_mut();
            let elapsed = acquired - st.last_change;
            let in_service = st.in_service as f64;
            st.busy_time += elapsed.mul_f64(in_service);
            st.last_change = acquired;
            st.in_service += 1;
            if wait > st.max_wait {
                st.max_wait = wait;
            }
        }
        Claim {
            _permit: permit,
            stats: Rc::clone(&self.stats),
            acquired_at: acquired,
        }
    }

    /// Acquire a server, hold it for `service_time`, release. Returns the
    /// time spent waiting in the queue.
    pub async fn serve(&self, service_time: SimDuration) -> SimDuration {
        let requested = now();
        let claim = self.acquire().await;
        let wait = now() - requested;
        sleep(service_time).await;
        drop(claim);
        wait
    }

    /// Number of completed services.
    pub fn served(&self) -> u64 {
        self.stats.borrow().served
    }

    /// Maximum queue wait observed.
    pub fn max_wait(&self) -> SimDuration {
        self.stats.borrow().max_wait
    }

    /// Fraction of server-time busy since t=0 (0..=1 per server).
    pub fn utilization(&self, at: SimTime) -> f64 {
        let st = self.stats.borrow();
        let horizon = at.as_secs_f64() * self.sem.capacity() as f64;
        if horizon <= 0.0 {
            return 0.0;
        }
        let busy =
            st.busy_time.as_secs_f64() + (at - st.last_change).as_secs_f64() * st.in_service as f64;
        (busy / horizon).clamp(0.0, 1.0)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        // During Sim teardown leftover tasks are dropped outside the run
        // loop; skip the stats update then (the permit still releases).
        let Some(sim) = crate::executor::try_current() else {
            return;
        };
        let released = sim.now();
        let mut st = self.stats.borrow_mut();
        let elapsed = released - st.last_change;
        let in_service = st.in_service as f64;
        st.busy_time += elapsed.mul_f64(in_service);
        st.last_change = released;
        st.in_service -= 1;
        st.served += 1;
        st.total_service += released - self.acquired_at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinators::join_all;
    use crate::executor::{spawn, Sim};
    use crate::time::secs;

    #[test]
    fn serve_serializes_on_single_server() {
        let sim = Sim::new();
        let waits = sim.block_on(async {
            let r = Resource::new("disk", 1);
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let r = r.clone();
                    spawn(async move { r.serve(secs(2.0)).await })
                })
                .collect();
            join_all(handles).await
        });
        assert_eq!(waits, vec![secs(0.0), secs(2.0), secs(4.0)]);
    }

    #[test]
    fn stats_accumulate() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = Resource::new("cpu", 2);
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let r = r.clone();
                    spawn(async move {
                        r.serve(secs(1.0)).await;
                    })
                })
                .collect();
            join_all(handles).await;
            assert_eq!(r.served(), 4);
            // Two waited 0, two waited 1s.
            assert_eq!(r.max_wait(), secs(1.0));
            // 4 server-seconds of work over 2 servers × 2 seconds.
            let u = r.utilization(now());
            assert!((u - 1.0).abs() < 1e-9, "utilization {u}");
        });
    }

    #[test]
    fn utilization_partial() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = Resource::new("link", 1);
            r.serve(secs(1.0)).await;
            sleep(secs(1.0)).await;
            let u = r.utilization(now());
            assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
        });
    }

    #[test]
    fn acquire_claim_holds_until_drop() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = Resource::new("slot", 1);
            let c = r.acquire().await;
            assert_eq!(r.available(), 0);
            drop(c);
            assert_eq!(r.available(), 1);
        });
    }
}
