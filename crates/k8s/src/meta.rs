//! Object metadata.

use std::collections::BTreeMap;

/// Metadata common to every API object.
#[derive(Clone, Debug, Default)]
pub struct ObjectMeta {
    /// Object name, unique per kind.
    pub name: String,
    /// Labels; a revision's ready endpoints are the routable pods that
    /// carry its label.
    pub labels: BTreeMap<String, String>,
    /// Name of the controller object that owns this one, if any.
    pub owner: Option<String>,
    /// Set when deletion has been requested; object is torn down async.
    pub deletion_requested: bool,
}

impl ObjectMeta {
    /// Metadata with just a name.
    pub fn named(name: impl Into<String>) -> Self {
        ObjectMeta {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add one label (builder style).
    pub fn with_label(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.labels.insert(k.into(), v.into());
        self
    }

    /// Set the owner (builder style).
    pub fn owned_by(mut self, owner: impl Into<String>) -> Self {
        self.owner = Some(owner.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_name_labels_and_owner() {
        let m = ObjectMeta::named("p")
            .with_label("app", "matmul")
            .owned_by("rs-1");
        assert_eq!(m.name, "p");
        assert_eq!(m.labels["app"], "matmul");
        assert_eq!(m.owner.as_deref(), Some("rs-1"));
    }
}
