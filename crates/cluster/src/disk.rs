//! Disk I/O model: a bandwidth-limited channel with per-operation latency.
//!
//! All reads/writes on one disk serialize through a FIFO channel resource
//! (one outstanding operation at a time, as with a single NVMe queue pair in
//! the simulated regime); time charged is `latency + size / bandwidth`.

use swf_simcore::{secs, Resource, SimDuration};

use crate::units::Rate;

/// A node-local disk.
#[derive(Clone)]
pub struct Disk {
    channel: Resource,
    bandwidth: Rate,
    latency: SimDuration,
}

impl Disk {
    /// Disk with the given sequential bandwidth and per-op latency.
    pub fn new(name: impl Into<String>, bandwidth: Rate, latency: SimDuration) -> Self {
        Disk {
            channel: Resource::new(name.into(), 1),
            bandwidth,
            latency,
        }
    }

    /// A typical datacenter SSD: 500 MB/s, 100 µs per op.
    pub fn standard_ssd(name: impl Into<String>) -> Self {
        Disk::new(name, Rate::mb_per_s(500.0), SimDuration::from_micros(100))
    }

    /// Charge virtual time for reading `bytes`.
    pub async fn read(&self, bytes: u64) -> SimDuration {
        self.io(bytes).await
    }

    /// Charge virtual time for writing `bytes`.
    pub async fn write(&self, bytes: u64) -> SimDuration {
        self.io(bytes).await
    }

    async fn io(&self, bytes: u64) -> SimDuration {
        let service = self.latency + secs(self.bandwidth.time_for(bytes));
        let wait = self.channel.serve(service).await;
        wait + service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{join_all, now, spawn, Sim, SimTime};

    #[test]
    fn read_time_scales_with_size() {
        let sim = Sim::new();
        sim.block_on(async {
            let d = Disk::new("d", Rate::mb_per_s(100.0), SimDuration::ZERO);
            let t = d.read(100_000_000).await;
            assert_eq!(t, secs(1.0));
            assert_eq!(now(), SimTime::ZERO + secs(1.0));
        });
    }

    #[test]
    fn latency_applies_per_op() {
        let sim = Sim::new();
        sim.block_on(async {
            let d = Disk::new("d", Rate::mb_per_s(1e12), SimDuration::from_millis(5));
            d.read(10).await;
            d.write(10).await;
            assert_eq!(now(), SimTime::ZERO + SimDuration::from_millis(10));
        });
    }

    #[test]
    fn concurrent_ops_serialize() {
        let sim = Sim::new();
        sim.block_on(async {
            let d = Disk::new("d", Rate::mb_per_s(100.0), SimDuration::ZERO);
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let d = d.clone();
                    spawn(async move { d.read(100_000_000).await })
                })
                .collect();
            let times = join_all(handles).await;
            // Each op takes 1s of service; total observed latencies are 1,2,3.
            assert_eq!(times, vec![secs(1.0), secs(2.0), secs(3.0)]);
        });
    }
}
