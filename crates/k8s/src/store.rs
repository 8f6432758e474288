//! Versioned, watchable object store — the heart of the API server.
//!
//! Controllers follow the Kubernetes pattern: *level-triggered reconcile*.
//! A [`Watcher`] wakes whenever the store version advances; the controller
//! then lists current state and reconciles. Missed intermediate states are
//! fine by construction.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_simcore::sync::Notify;

struct Inner<T> {
    objects: BTreeMap<String, T>,
    version: u64,
    notify: Notify,
}

/// A watchable map of named objects.
pub struct Store<T: Clone> {
    inner: Rc<RefCell<Inner<T>>>,
}

impl<T: Clone> Clone for Store<T> {
    fn clone(&self) -> Self {
        Store {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl<T: Clone> Default for Store<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Store<T> {
    /// Empty store at version 0.
    pub fn new() -> Self {
        Store {
            inner: Rc::new(RefCell::new(Inner {
                objects: BTreeMap::new(),
                version: 0,
                notify: Notify::new(),
            })),
        }
    }

    fn bump(inner: &mut Inner<T>) {
        inner.version += 1;
        inner.notify.notify_waiters();
    }

    /// Insert or replace an object.
    pub fn put(&self, name: impl Into<String>, object: T) {
        let mut inner = self.inner.borrow_mut();
        inner.objects.insert(name.into(), object);
        Self::bump(&mut inner);
    }

    /// Remove an object; returns it if present.
    pub fn delete(&self, name: &str) -> Option<T> {
        let mut inner = self.inner.borrow_mut();
        let removed = inner.objects.remove(name);
        if removed.is_some() {
            Self::bump(&mut inner);
        }
        removed
    }

    /// Fetch a copy of an object.
    pub fn get(&self, name: &str) -> Option<T> {
        self.inner.borrow().objects.get(name).cloned()
    }

    /// Mutate an object in place; bumps the version if the closure ran.
    /// Returns false when the object does not exist.
    pub fn update<R>(&self, name: &str, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let mut inner = self.inner.borrow_mut();
        let r = inner.objects.get_mut(name).map(f);
        if r.is_some() {
            Self::bump(&mut inner);
        }
        r
    }

    /// Inspect the objects in place, copying none of them. The closure
    /// must not write the store it reads: the store's borrow is held while
    /// it runs, so a `put`/`update`/`delete` inside it panics. A caller
    /// that keeps objects across an `.await` takes a snapshot
    /// ([`get`](Self::get), [`filter`](Self::filter)) instead.
    pub fn read<R>(&self, f: impl FnOnce(&BTreeMap<String, T>) -> R) -> R {
        f(&self.inner.borrow().objects)
    }

    /// Snapshot all objects (sorted by name).
    pub fn list(&self) -> Vec<T> {
        self.inner.borrow().objects.values().cloned().collect()
    }

    /// Snapshot all `(name, object)` pairs.
    pub fn entries(&self) -> Vec<(String, T)> {
        self.inner
            .borrow()
            .objects
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Objects satisfying a predicate.
    pub fn filter(&self, pred: impl Fn(&T) -> bool) -> Vec<T> {
        self.inner
            .borrow()
            .objects
            .values()
            .filter(|o| pred(o))
            .cloned()
            .collect()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.inner.borrow().objects.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current version.
    pub fn version(&self) -> u64 {
        self.inner.borrow().version
    }

    /// Does the name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.inner.borrow().objects.contains_key(name)
    }

    /// Create a watcher positioned at the current version.
    pub fn watch(&self) -> Watcher<T> {
        Watcher {
            store: self.clone(),
            seen: self.version(),
        }
    }
}

/// Wakes when the store version advances past the last seen version.
pub struct Watcher<T: Clone> {
    store: Store<T>,
    seen: u64,
}

impl<T: Clone> Watcher<T> {
    /// Wait until the store has changed since the last `changed` (or since
    /// watcher creation). Returns the new version.
    pub async fn changed(&mut self) -> u64 {
        loop {
            let (version, notified) = {
                let inner = self.store.inner.borrow();
                if inner.version > self.seen {
                    self.seen = inner.version;
                    return inner.version;
                }
                (inner.version, inner.notify.notified())
            };
            let _ = version;
            notified.await;
        }
    }

    /// Non-blocking check; advances the seen version when changed.
    pub fn check(&mut self) -> bool {
        let v = self.store.version();
        if v > self.seen {
            self.seen = v;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swf_simcore::{now, secs, sleep, spawn, Sim, SimTime};

    #[test]
    fn crud_and_versions() {
        let s: Store<u32> = Store::new();
        assert_eq!(s.version(), 0);
        s.put("a", 1);
        s.put("b", 2);
        assert_eq!(s.version(), 2);
        assert_eq!(s.get("a"), Some(1));
        assert_eq!(s.list(), vec![1, 2]);
        s.update("a", |v| *v = 10);
        assert_eq!(s.get("a"), Some(10));
        assert_eq!(s.delete("a"), Some(10));
        assert_eq!(s.delete("a"), None);
        assert_eq!(s.version(), 4); // delete of missing key does not bump
        assert_eq!(s.len(), 1);
        assert!(s.contains("b"));
    }

    #[test]
    fn update_missing_returns_none_without_bump() {
        let s: Store<u32> = Store::new();
        assert_eq!(s.update("ghost", |v| *v += 1), None);
        assert_eq!(s.version(), 0);
    }

    #[test]
    fn watcher_wakes_on_change() {
        let sim = Sim::new();
        sim.block_on(async {
            let s: Store<u32> = Store::new();
            let mut w = s.watch();
            let s2 = s.clone();
            spawn(async move {
                sleep(secs(1.0)).await;
                s2.put("x", 7);
            });
            let v = w.changed().await;
            assert_eq!(v, 1);
            assert_eq!(now(), SimTime::ZERO + secs(1.0));
        });
    }

    #[test]
    fn watcher_coalesces_many_updates() {
        let sim = Sim::new();
        sim.block_on(async {
            let s: Store<u32> = Store::new();
            let mut w = s.watch();
            for i in 0..5 {
                s.put(format!("k{i}"), i);
            }
            // One changed() observes all five.
            let v = w.changed().await;
            assert_eq!(v, 5);
            assert!(!w.check());
        });
    }

    #[test]
    fn read_clones_nothing_and_filter_clones_only_its_matches() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Counted(u32, Rc<Cell<usize>>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.1.set(self.1.get() + 1);
                Counted(self.0, Rc::clone(&self.1))
            }
        }
        let clones = Rc::new(Cell::new(0));
        let s: Store<Counted> = Store::new();
        for i in 0..10 {
            s.put(format!("k{i}"), Counted(i, Rc::clone(&clones)));
        }
        let (sum, names) = s.read(|objects| {
            let sum: u32 = objects.values().map(|c| c.0).sum();
            (sum, objects.keys().filter(|k| k.as_str() > "k7").count())
        });
        assert_eq!((sum, names), (45, 2));
        assert_eq!(clones.get(), 0, "read copies no object");
        assert_eq!(s.filter(|c| c.0 % 5 == 0).len(), 2);
        assert_eq!(clones.get(), 2, "filter copies its matches and no more");
        assert_eq!(s.list().len(), 10);
        assert_eq!(clones.get(), 12, "list copies everything");
    }

    #[test]
    fn filter_and_entries() {
        let s: Store<u32> = Store::new();
        s.put("a", 1);
        s.put("b", 2);
        s.put("c", 3);
        assert_eq!(s.filter(|v| *v % 2 == 1), vec![1, 3]);
        let names: Vec<String> = s.entries().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
