//! Simulated filesystems.
//!
//! Files hold real byte payloads (`bytes::Bytes`) so workflow tasks compute
//! on genuine data, while read/write operations charge virtual disk time.
//! Two flavors exist in the cluster: one local filesystem per node, and one
//! shared filesystem exported by the submit node (the paper's staging area).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;

use crate::disk::Disk;
use crate::error::ClusterError;

/// A simulated filesystem backed by a [`Disk`] for timing.
#[derive(Clone)]
pub struct SimFs {
    name: Rc<str>,
    disk: Disk,
    files: Rc<RefCell<BTreeMap<String, Bytes>>>,
}

impl SimFs {
    /// Create an empty filesystem whose operations are charged to `disk`.
    pub fn new(name: impl Into<String>, disk: Disk) -> Self {
        SimFs {
            name: Rc::from(name.into()),
            disk,
            files: Rc::new(RefCell::new(BTreeMap::new())),
        }
    }

    /// Filesystem name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read a whole file, charging disk time proportional to its size.
    pub async fn read(&self, path: &str) -> Result<Bytes, ClusterError> {
        let data = self
            .files
            .borrow()
            .get(path)
            .cloned()
            .ok_or_else(|| ClusterError::FileNotFound(format!("{}:{path}", self.name)))?;
        self.disk.read(data.len() as u64).await;
        Ok(data)
    }

    /// Write a whole file, charging disk time.
    pub async fn write(&self, path: impl Into<String>, data: Bytes) {
        self.disk.write(data.len() as u64).await;
        self.files.borrow_mut().insert(path.into(), data);
    }

    /// Instantaneously place a file (experiment setup, not measured I/O).
    pub fn stage(&self, path: impl Into<String>, data: Bytes) {
        self.files.borrow_mut().insert(path.into(), data);
    }

    /// Remove a file; true if it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.files.borrow_mut().remove(path).is_some()
    }

    /// Does the file exist?
    pub fn exists(&self, path: &str) -> bool {
        self.files.borrow().contains_key(path)
    }

    /// Size of a file without charging I/O time (metadata lookup).
    pub fn size(&self, path: &str) -> Option<u64> {
        self.files.borrow().get(path).map(|d| d.len() as u64)
    }

    /// Paths currently stored (sorted).
    pub fn list(&self) -> Vec<String> {
        self.files.borrow().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Rate;
    use swf_simcore::{now, secs, Sim, SimDuration, SimTime};

    fn fast_fs() -> SimFs {
        SimFs::new("t", Disk::new(Rate::mb_per_s(100.0), SimDuration::ZERO))
    }

    #[test]
    fn write_then_read_roundtrips_content() {
        let sim = Sim::new();
        sim.block_on(async {
            let fs = fast_fs();
            fs.write("a.mat", Bytes::from(vec![1u8, 2, 3])).await;
            let b = fs.read("a.mat").await.unwrap();
            assert_eq!(&b[..], &[1, 2, 3]);
        });
    }

    #[test]
    fn read_missing_file_errors() {
        let sim = Sim::new();
        sim.block_on(async {
            let fs = fast_fs();
            let e = fs.read("nope").await.unwrap_err();
            assert!(matches!(e, ClusterError::FileNotFound(_)));
        });
    }

    #[test]
    fn io_charges_time_by_size() {
        let sim = Sim::new();
        sim.block_on(async {
            let fs = fast_fs();
            fs.write("big", crate::bulk::zeroed_bytes(100_000_000))
                .await;
            assert_eq!(now(), SimTime::ZERO + secs(1.0));
            fs.read("big").await.unwrap();
            assert_eq!(now(), SimTime::ZERO + secs(2.0));
        });
    }

    #[test]
    fn stage_is_instant() {
        let sim = Sim::new();
        sim.block_on(async {
            let fs = fast_fs();
            fs.stage("x", Bytes::from_static(b"abc"));
            assert_eq!(now(), SimTime::ZERO);
            assert!(fs.exists("x"));
            assert_eq!(fs.size("x"), Some(3));
        });
    }

    #[test]
    fn metadata_helpers() {
        let sim = Sim::new();
        sim.block_on(async {
            let fs = fast_fs();
            fs.stage("b", Bytes::from_static(b"yy"));
            fs.stage("a", Bytes::from_static(b"x"));
            assert_eq!(fs.list(), vec!["a".to_string(), "b".to_string()]);
            assert!(fs.remove("a"));
            assert!(!fs.remove("a"));
        });
    }
}
