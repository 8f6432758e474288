//! Error types for the cluster model.

use std::fmt;

/// Errors surfaced by cluster components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// Referenced node does not exist.
    UnknownNode(String),
    /// File not present in the queried filesystem.
    FileNotFound(String),
    /// Memory allocation would exceed node capacity.
    OutOfMemory {
        /// Node that rejected the allocation.
        node: String,
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        available: u64,
    },
    /// No listener bound at the target address.
    ConnectionRefused {
        /// Target node.
        node: String,
        /// Target port.
        port: u16,
    },
    /// The link between two nodes is partitioned (fault injection): no
    /// traffic passes until the partition heals.
    Partitioned {
        /// Source node.
        from: String,
        /// Destination node.
        to: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::FileNotFound(p) => write!(f, "file not found: {p}"),
            ClusterError::OutOfMemory {
                node,
                requested,
                available,
            } => write!(
                f,
                "out of memory on {node}: requested {requested}B, available {available}B"
            ),
            ClusterError::ConnectionRefused { node, port } => {
                write!(f, "connection refused: {node}:{port}")
            }
            ClusterError::Partitioned { from, to } => {
                write!(f, "network partition: {from} -/- {to}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}
