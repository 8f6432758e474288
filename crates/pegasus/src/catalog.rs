//! Pegasus catalogs: transformations and replicas.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::abstract_wf::Transformation;

/// The transformation catalog: logical name → executable description.
#[derive(Clone, Default)]
pub struct TransformationCatalog {
    map: Rc<RefCell<BTreeMap<String, Transformation>>>,
}

impl TransformationCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a transformation (replaces an existing entry).
    pub fn register(&self, t: Transformation) {
        self.map.borrow_mut().insert(t.name.clone(), t);
    }

    /// Look up by logical name.
    pub fn lookup(&self, name: &str) -> Option<Transformation> {
        self.map.borrow().get(name).cloned()
    }

    /// Number of registered transformations.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }
}

/// Where a logical file physically lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaLocation {
    /// Staged on the submit node's shared filesystem under this path.
    SharedFs(String),
}

/// The replica catalog: logical file name → physical location.
#[derive(Clone, Default)]
pub struct ReplicaCatalog {
    map: Rc<RefCell<BTreeMap<String, ReplicaLocation>>>,
}

impl ReplicaCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a replica.
    pub fn register(&self, logical: impl Into<String>, location: ReplicaLocation) {
        self.map.borrow_mut().insert(logical.into(), location);
    }

    /// Look up a replica.
    pub fn lookup(&self, logical: &str) -> Option<ReplicaLocation> {
        self.map.borrow().get(logical).cloned()
    }

    /// True when the file is known.
    pub fn contains(&self, logical: &str) -> bool {
        self.map.borrow().contains_key(logical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::secs;

    #[test]
    fn transformation_catalog_roundtrip() {
        let cat = TransformationCatalog::new();
        assert!(cat.is_empty());
        cat.register(Transformation::new("matmul", secs(0.458), Ok));
        assert_eq!(cat.len(), 1);
        assert!(cat.lookup("matmul").is_some());
        assert!(cat.lookup("ghost").is_none());
    }

    #[test]
    fn replica_catalog_roundtrip() {
        let cat = ReplicaCatalog::new();
        cat.register("seed_a", ReplicaLocation::SharedFs("seed_a".into()));
        assert!(cat.contains("seed_a"));
        assert_eq!(
            cat.lookup("seed_a"),
            Some(ReplicaLocation::SharedFs("seed_a".into()))
        );
        assert!(!cat.contains("other"));
    }
}
