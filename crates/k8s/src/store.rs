//! Versioned, watchable object store — the heart of the API server.
//!
//! Controllers follow the Kubernetes pattern: *level-triggered reconcile*.
//! A [`Watcher`] wakes whenever the store version advances; the controller
//! then lists current state and reconciles. Missed intermediate states are
//! fine by construction.
//!
//! The store shares, like a client-go informer cache: it holds each object
//! behind an `Rc` and every read hands out that `Rc`, an immutable snapshot
//! that costs a reference count, never a deep copy. A write is
//! copy-on-write ([`Rc::make_mut`]): it mutates in place unless a caller
//! still holds a snapshot of the object, in which case it copies once and
//! the snapshot keeps the state it was taken with.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use swf_simcore::sync::Watch;

struct Shared<T> {
    objects: RefCell<BTreeMap<String, Rc<T>>>,
    /// Bumped by every write; its version is the store's.
    watch: Watch,
}

/// A watchable map of named objects.
pub struct Store<T: Clone> {
    shared: Rc<Shared<T>>,
}

impl<T: Clone> Clone for Store<T> {
    fn clone(&self) -> Self {
        Store {
            shared: Rc::clone(&self.shared),
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
            shared: Rc::new(Shared {
                objects: RefCell::new(BTreeMap::new()),
                watch: Watch::new(),
            }),
        }
    }

    /// Insert or replace an object.
    pub fn put(&self, name: impl Into<String>, object: T) {
        self.shared
            .objects
            .borrow_mut()
            .insert(name.into(), Rc::new(object));
        self.shared.watch.bump();
    }

    /// Remove an object; returns it if present.
    pub fn delete(&self, name: &str) -> Option<Rc<T>> {
        let removed = self.shared.objects.borrow_mut().remove(name);
        if removed.is_some() {
            self.shared.watch.bump();
        }
        removed
    }

    /// A snapshot of one object.
    pub fn get(&self, name: &str) -> Option<Rc<T>> {
        self.shared.objects.borrow().get(name).cloned()
    }

    /// Mutate an object; bumps the version if the closure ran. Returns
    /// `None` when the object does not exist. Writes in place unless a
    /// snapshot of the object is alive, which it copies first: a caller
    /// about to write what it read drops its snapshot before the write.
    pub fn update<R>(&self, name: &str, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let mut objects = self.shared.objects.borrow_mut();
        let r = objects.get_mut(name).map(|o| f(Rc::make_mut(o)));
        drop(objects);
        if r.is_some() {
            self.shared.watch.bump();
        }
        r
    }

    /// Inspect the objects in place, taking no snapshot. The closure must
    /// not write the store it reads: the store's borrow is held while it
    /// runs, so a `put`/`update`/`delete` inside it panics. A caller that
    /// keeps an object across an `.await` or a write takes a snapshot
    /// ([`get`](Self::get), [`filter`](Self::filter)) instead; that costs
    /// a reference count, not a copy.
    pub fn read<R>(&self, f: impl FnOnce(&BTreeMap<String, Rc<T>>) -> R) -> R {
        f(&self.shared.objects.borrow())
    }

    /// Snapshot all objects (sorted by name).
    pub fn list(&self) -> Vec<Rc<T>> {
        self.shared.objects.borrow().values().cloned().collect()
    }

    /// Snapshot the objects satisfying a predicate (sorted by name).
    pub fn filter(&self, pred: impl Fn(&T) -> bool) -> Vec<Rc<T>> {
        self.shared
            .objects
            .borrow()
            .values()
            .filter(|o| pred(o))
            .cloned()
            .collect()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.shared.objects.borrow().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current version.
    pub fn version(&self) -> u64 {
        self.shared.watch.version()
    }

    /// Does the name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.shared.objects.borrow().contains_key(name)
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
        self.seen = self.store.shared.watch.changed(self.seen).await;
        self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::future::Future;
    use swf_simcore::{now, race, secs, sleep, spawn, Either, Sim, SimTime};

    /// The values of a snapshot list.
    fn values(objects: &[Rc<u32>]) -> Vec<u32> {
        objects.iter().map(|o| **o).collect()
    }

    #[test]
    fn crud_and_versions() {
        let s: Store<u32> = Store::new();
        assert_eq!(s.version(), 0);
        s.put("a", 1);
        s.put("b", 2);
        assert_eq!(s.version(), 2);
        assert_eq!(s.get("a").as_deref(), Some(&1));
        assert_eq!(values(&s.list()), vec![1, 2]);
        s.update("a", |v| *v = 10);
        assert_eq!(s.get("a").as_deref(), Some(&10));
        assert_eq!(s.delete("a").as_deref(), Some(&10));
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
            // One changed() observes all five, and nothing is left over.
            let v = w.changed().await;
            assert_eq!(v, 5);
            let next = race(w.changed(), sleep(secs(1.0))).await;
            assert!(matches!(next, Either::Right(())));
        });
    }

    /// A controller races two watchers and both stores change: it takes
    /// the left one and drops the right one woken but unobserved. That
    /// wake is not handed to anyone: a watcher that started waiting on
    /// the right store in between is not polled until that store really
    /// changes again.
    #[test]
    fn a_race_loser_passes_no_wake_on() {
        let sim = Sim::new();
        sim.block_on(async {
            let (left, right): (Store<u32>, Store<u32>) = (Store::new(), Store::new());
            let racer = {
                let (mut l, mut r) = (left.watch(), right.watch());
                spawn(async move {
                    let _ = race(l.changed(), r.changed()).await;
                })
            };
            sleep(secs(1.0)).await;
            left.put("a", 1);
            right.put("b", 2);
            // Start waiting on `right` before the racer runs.
            let mut third = right.watch();
            let mut changed = std::pin::pin!(third.changed());
            let polls = Cell::new(0);
            let woke = std::future::poll_fn(|cx| {
                polls.set(polls.get() + 1);
                changed.as_mut().poll(cx)
            });
            let writer = {
                let right = right.clone();
                spawn(async move {
                    sleep(secs(5.0)).await;
                    right.put("c", 3);
                })
            };
            assert_eq!(woke.await, 2);
            assert_eq!(now(), SimTime::ZERO + secs(6.0));
            assert_eq!(polls.get(), 2, "registered once, woken once");
            racer.await;
            writer.await;
        });
    }

    /// A `u32` that counts its deep copies.
    struct Counted(u32, Rc<Cell<usize>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.set(self.1.get() + 1);
            Counted(self.0, Rc::clone(&self.1))
        }
    }

    fn counted_store(n: u32) -> (Store<Counted>, Rc<Cell<usize>>) {
        let copies = Rc::new(Cell::new(0));
        let s = Store::new();
        for i in 0..n {
            s.put(format!("k{i}"), Counted(i, Rc::clone(&copies)));
        }
        (s, copies)
    }

    #[test]
    fn reads_copy_no_object() {
        let (s, copies) = counted_store(10);
        let (sum, names) = s.read(|objects| {
            let sum: u32 = objects.values().map(|c| c.0).sum();
            (sum, objects.keys().filter(|k| k.as_str() > "k7").count())
        });
        assert_eq!((sum, names), (45, 2));
        assert_eq!(s.filter(|c| c.0 % 5 == 0).len(), 2);
        assert_eq!(s.list().len(), 10);
        assert_eq!(s.get("k3").map(|c| c.0), Some(3));
        assert_eq!(s.delete("k4").map(|c| c.0), Some(4));
        assert_eq!(copies.get(), 0, "no read copies an object");
    }

    #[test]
    fn snapshots_do_not_see_later_writes() {
        let s: Store<u32> = Store::new();
        s.put("a", 1);
        s.put("b", 2);
        s.put("c", 3);
        let got = s.get("a").unwrap();
        let odd = s.filter(|v| *v % 2 == 1);
        let all = s.list();
        s.put("a", 100);
        s.update("c", |v| *v = 300);
        s.delete("b");
        s.put("d", 4);
        assert_eq!(*got, 1);
        assert_eq!(values(&odd), vec![1, 3]);
        assert_eq!(values(&all), vec![1, 2, 3]);
        assert_eq!(values(&s.list()), vec![100, 300, 4]);
    }

    #[test]
    fn update_of_an_unshared_object_writes_in_place() {
        let (s, copies) = counted_store(3);
        // A snapshot taken and dropped before the write forces no copy.
        let before = Rc::as_ptr(&s.get("k1").unwrap());
        assert_eq!(s.update("k1", |c| c.0 = 10), Some(()));
        let after = s.get("k1").unwrap();
        assert!(std::ptr::eq(before, Rc::as_ptr(&after)), "same allocation");
        assert_eq!((after.0, copies.get()), (10, 0));
    }

    #[test]
    fn update_under_a_live_snapshot_copies_once() {
        let (s, copies) = counted_store(3);
        let snapshot = s.get("k1").unwrap();
        s.update("k1", |c| c.0 = 10);
        assert_eq!(copies.get(), 1, "the write copied the shared object");
        s.update("k1", |c| c.0 += 1);
        assert_eq!(copies.get(), 1, "the copy is the store's own from then on");
        let now_stored = s.get("k1").unwrap();
        assert!(!Rc::ptr_eq(&snapshot, &now_stored));
        assert_eq!((snapshot.0, now_stored.0), (1, 11));
    }
}
