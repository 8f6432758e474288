//! # swf-cluster
//!
//! Cluster hardware substrate for the *Serverless Computing for Dynamic HPC
//! Workflows* reproduction: compute nodes (cores, memory, disk), a network
//! fabric with per-NIC contention, node-local and shared filesystems holding
//! real byte payloads, and an HTTP layer used for serverless invocations.
//!
//! All timing is virtual (see `swf-simcore`); all data is real (`Bytes`), so
//! workflow tasks higher in the stack perform genuine matrix computations
//! while infrastructure costs are modelled.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![warn(clippy::allow_attributes_without_reason)]

pub mod bulk;
pub mod cluster;
pub mod disk;
pub mod error;
pub mod fs;
pub mod http;
pub mod memory;
pub mod network;
pub mod node;
pub mod units;

pub use bulk::zeroed_bytes;
pub use cluster::{Cluster, ClusterConfig};
pub use disk::Disk;
pub use error::ClusterError;
pub use fs::SimFs;
pub use http::{Body, HttpStack, Request, Response};
pub use memory::{MemoryLease, MemoryPool};
pub use network::{LinkQuality, Network, NodeId};
pub use node::{Node, NodeSpec};
pub use units::{gib, human_bytes, kib, mib, Rate};
