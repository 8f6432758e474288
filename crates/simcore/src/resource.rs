//! A capacity-`k` FIFO service station.
//!
//! This wraps [`Semaphore`] with a timed `serve`. It is the
//! standard building block for modelled hardware: CPU cores, disk channels,
//! network links, registry bandwidth.

use crate::executor::{now, sleep};
use crate::sync::semaphore::{Permit, Semaphore};
use crate::time::SimDuration;

/// FIFO resource with `capacity` parallel servers.
#[derive(Clone)]
pub struct Resource {
    sem: Semaphore,
}

/// A claim on one server of a [`Resource`]; released on drop.
pub struct Claim {
    _permit: Permit,
}

impl Resource {
    /// Create a resource with `capacity` servers.
    pub fn new(capacity: usize) -> Self {
        Resource {
            sem: Semaphore::new(capacity),
        }
    }

    /// Total server count.
    pub fn capacity(&self) -> usize {
        self.sem.capacity()
    }

    /// Servers currently free.
    pub fn available(&self) -> usize {
        self.sem.available()
    }

    /// Acquire one server, FIFO behind earlier requests.
    pub async fn acquire(&self) -> Claim {
        Claim {
            _permit: self.sem.acquire().await,
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
            let r = Resource::new(1);
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
    fn acquire_claim_holds_until_drop() {
        let sim = Sim::new();
        sim.block_on(async {
            let r = Resource::new(1);
            let c = r.acquire().await;
            assert_eq!(r.available(), 0);
            drop(c);
            assert_eq!(r.available(), 1);
        });
    }
}
