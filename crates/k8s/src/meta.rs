//! Object metadata and label selectors.

use std::collections::BTreeMap;

/// Unique id assigned by the API server.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Default)]
pub struct Uid(pub u64);

/// Metadata common to every API object.
#[derive(Clone, Debug, Default)]
pub struct ObjectMeta {
    /// Object name, unique per kind.
    pub name: String,
    /// Labels used by selectors.
    pub labels: BTreeMap<String, String>,
    /// Annotations (e.g. Knative autoscaling knobs).
    pub annotations: BTreeMap<String, String>,
    /// Server-assigned uid (0 until created).
    pub uid: Uid,
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

    /// Read an annotation parsed as `T`.
    pub fn annotation<T: std::str::FromStr>(&self, key: &str) -> Option<T> {
        self.annotations.get(key).and_then(|v| v.parse().ok())
    }
}

/// An equality-based label selector (the subset Kubernetes controllers use).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelSelector {
    /// All of these key/value pairs must match.
    pub match_labels: BTreeMap<String, String>,
}

impl LabelSelector {
    /// Selector over one label.
    pub fn eq(k: impl Into<String>, v: impl Into<String>) -> Self {
        let mut match_labels = BTreeMap::new();
        match_labels.insert(k.into(), v.into());
        LabelSelector { match_labels }
    }

    /// Add another required pair.
    pub fn and(mut self, k: impl Into<String>, v: impl Into<String>) -> Self {
        self.match_labels.insert(k.into(), v.into());
        self
    }

    /// Does `labels` satisfy this selector? An empty selector matches
    /// nothing (Kubernetes semantics for services without selectors differ,
    /// but controllers treat empty as non-selecting).
    pub fn matches(&self, labels: &BTreeMap<String, String>) -> bool {
        if self.match_labels.is_empty() {
            return false;
        }
        self.match_labels
            .iter()
            .all(|(k, v)| labels.get(k) == Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_annotation_parse() {
        let mut m = ObjectMeta::named("p")
            .with_label("app", "matmul")
            .owned_by("rs-1");
        m.annotations
            .insert("autoscaling.knative.dev/min-scale".into(), "3".into());
        assert_eq!(m.name, "p");
        assert_eq!(m.labels["app"], "matmul");
        assert_eq!(
            m.annotation::<u32>("autoscaling.knative.dev/min-scale"),
            Some(3)
        );
        assert_eq!(m.annotation::<u32>("missing"), None);
        assert_eq!(m.owner.as_deref(), Some("rs-1"));
    }

    #[test]
    fn selector_matching() {
        let sel = LabelSelector::eq("app", "m").and("rev", "r1");
        let mut labels = BTreeMap::new();
        labels.insert("app".to_string(), "m".to_string());
        assert!(!sel.matches(&labels));
        labels.insert("rev".to_string(), "r1".to_string());
        assert!(sel.matches(&labels));
        labels.insert("extra".to_string(), "x".to_string());
        assert!(sel.matches(&labels));
    }

    #[test]
    fn empty_selector_matches_nothing() {
        let sel = LabelSelector::default();
        assert!(!sel.matches(&BTreeMap::new()));
    }
}
