//! RCU-protected keyed linked list with copy-on-update writers.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pbs_alloc_api::{AllocError, ObjectAllocator};
use pbs_rcu::ReadGuard;

use crate::NodeAlloc;

/// One list node, stored inside an allocator object.
#[repr(C)]
struct Node<T> {
    key: u64,
    value: T,
    next: AtomicPtr<Node<T>>,
}

/// An RCU-protected singly-linked list keyed by `u64`, the paper's
/// Figure 1 workload.
///
/// * **Readers** traverse wait-free under a [`ReadGuard`] and never block
///   writers.
/// * **Writers** serialize on an internal lock (the paper's per-list lock).
///   [`update`](Self::update) replaces a node copy-on-write and defers the
///   free of the old version through the allocator —
///   `free_deferred(old_object)`, paper Listing 2.
///
/// Nodes are allocated from the [`ObjectAllocator`] given at construction,
/// so running the same list over SLUB vs Prudence compares the two
/// reclamation designs with identical list code.
///
/// See the [crate-level documentation](crate) for an example.
pub struct RcuList<T> {
    head: AtomicPtr<Node<T>>,
    nodes: NodeAlloc,
    writer: Mutex<()>,
    len: AtomicUsize,
    _marker: PhantomData<T>,
}

// SAFETY: nodes are plain data (T: Copy + Send + Sync) behind atomics; all
// mutation is serialized by `writer` and reclamation by RCU.
unsafe impl<T: Copy + Send + Sync> Send for RcuList<T> {}
unsafe impl<T: Copy + Send + Sync> Sync for RcuList<T> {}

impl<T> std::fmt::Debug for RcuList<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuList")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Copy + Send + Sync> RcuList<T> {
    /// Creates an empty list whose nodes live in `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if the allocator's objects are too small or under-aligned
    /// for a node of `T`.
    pub fn new(alloc: Arc<dyn ObjectAllocator>) -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
            nodes: NodeAlloc::new::<Node<T>>(alloc, "list"),
            writer: Mutex::new(()),
            len: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    fn alloc_node(&self, key: u64, value: T, next: *mut Node<T>) -> Result<*mut Node<T>, AllocError> {
        self.nodes.alloc_node(Node {
            key,
            value,
            next: AtomicPtr::new(next),
        })
    }

    /// Retires an unlinked node (poisoning its link under a robust
    /// backend; see `NodeAlloc::retire`).
    ///
    /// # Safety
    ///
    /// `node` must be unlinked (unreachable for new readers) and retired
    /// exactly once.
    unsafe fn retire(&self, node: *mut Node<T>) {
        self.nodes.retire(node, [&(*node).next]);
    }

    /// Number of entries (approximate under concurrent writers).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a new entry at the head.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if node allocation fails. Duplicate keys are
    /// allowed; [`lookup`](Self::lookup) returns the most recent.
    pub fn insert(&self, key: u64, value: T) -> Result<(), AllocError> {
        let _w = self.writer.lock();
        let head = self.head.load(Ordering::Acquire);
        let node = self.alloc_node(key, value, head)?;
        self.head.store(node, Ordering::Release);
        self.len.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks up `key` under an RCU read guard, returning a copy of the
    /// value. Wait-free with respect to writers.
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain than this list's
    /// allocator (that guard would not protect this traversal).
    pub fn lookup(&self, guard: &ReadGuard<'_>, key: u64) -> Option<T> {
        self.nodes.check_guard(guard);
        guard.walk(self.nodes.kind, |t| {
            let mut cur = t.load(&self.head)?;
            while !cur.is_null() {
                // SAFETY: `cur` came out of a protected load — under
                // epoch the guard keeps it alive, under hp its hazard
                // slot does, under hyaline the pin's capture was live at
                // the load's ejection check.
                let node = unsafe { &*cur };
                if node.key == key {
                    let value = node.value;
                    // Commit only data copied under live protection.
                    t.checkpoint()?;
                    return Ok(Some(value));
                }
                cur = t.load(&node.next)?;
            }
            Ok(None)
        })
    }

    /// Iterates the list under a guard, calling `f` for each entry.
    ///
    /// # Panics
    ///
    /// Panics on a cross-domain guard, as [`lookup`](Self::lookup).
    pub fn for_each(&self, guard: &ReadGuard<'_>, mut f: impl FnMut(u64, &T)) {
        self.nodes.check_guard(guard);
        // Entries already delivered to `f`. A revoked attempt (hyaline
        // ejection) restarts the chain and skips this many before
        // emitting again, so nothing is delivered twice: positional
        // resume, exact on a quiescent list and best-effort — like any
        // RCU walk — under concurrent writers.
        let mut emitted = 0usize;
        guard.walk(self.nodes.kind, |t| {
            let mut cur = t.load(&self.head)?;
            let mut index = 0usize;
            while !cur.is_null() {
                // SAFETY: as in `lookup`.
                let node = unsafe { &*cur };
                if index >= emitted {
                    let (key, value) = (node.key, node.value);
                    t.checkpoint()?;
                    f(key, &value);
                    emitted += 1;
                }
                index += 1;
                cur = t.load(&node.next)?;
            }
            Ok(())
        });
    }

    /// The Figure 1 update: replaces the first entry with `key` by a new
    /// version carrying `value`, and defers the free of the old version.
    /// Returns `Ok(true)` if an entry was updated.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if allocating the new version fails (the list
    /// is unchanged).
    pub fn update(&self, key: u64, value: T) -> Result<bool, AllocError> {
        let _w = self.writer.lock();
        let mut prev: *const AtomicPtr<Node<T>> = &self.head;
        // SAFETY: the writer lock is held, so the chain of next pointers
        // is stable under us and every node we touch is still reachable.
        // This holds under every reclamation backend without per-hop
        // protection: nodes are only deferred *after* being unlinked, and
        // unlinking requires this same lock — so no backend, robust or
        // not, can reclaim a reachable node out from under the walk.
        unsafe {
            let mut cur = (*prev).load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    let next = (*cur).next.load(Ordering::Acquire);
                    let new = self.alloc_node(key, value, next)?;
                    // Publish the new version; readers see old or new.
                    (*prev).store(new, Ordering::Release);
                    // Defer freeing the old version (Listing 2).
                    self.retire(cur);
                    return Ok(true);
                }
                prev = &(*cur).next;
                cur = (*prev).load(Ordering::Acquire);
            }
        }
        Ok(false)
    }

    /// Unlinks the first entry with `key` and defers its free. Returns
    /// `true` if an entry was removed.
    pub fn remove(&self, key: u64) -> bool {
        let _w = self.writer.lock();
        let mut prev: *const AtomicPtr<Node<T>> = &self.head;
        // SAFETY: as in `update` (lock-serialized reachability covers
        // every backend).
        unsafe {
            let mut cur = (*prev).load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    let next = (*cur).next.load(Ordering::Acquire);
                    (*prev).store(next, Ordering::Release);
                    self.retire(cur);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return true;
                }
                prev = &(*cur).next;
                cur = (*prev).load(Ordering::Acquire);
            }
        }
        false
    }
}

impl<T> Drop for RcuList<T> {
    fn drop(&mut self) {
        // Exclusive access: free remaining nodes immediately.
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: no readers or writers can exist during drop.
            unsafe {
                let next = (*cur).next.load(Ordering::Acquire);
                self.nodes.free(cur);
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::prudence::PrudenceCache;
    use pbs_alloc_api::ObjPtr;
    use pbs_mem::PageAllocator;
    use pbs_rcu::reclaim::ReclaimBackend;
    use pbs_rcu::{Rcu, RcuConfig};

    fn setup() -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache: Arc<dyn ObjectAllocator> = PrudenceCache::new(
            "list-nodes",
            64,
            EngineConfig::new(2),
            pages,
            Arc::clone(&rcu),
        );
        (rcu, cache)
    }

    #[test]
    fn insert_lookup_remove() {
        let (rcu, cache) = setup();
        let list: RcuList<u64> = RcuList::new(cache);
        let t = rcu.register();
        for i in 0..100 {
            list.insert(i, i * 10).unwrap();
        }
        assert_eq!(list.len(), 100);
        let g = t.read_lock();
        assert_eq!(list.lookup(&g, 42), Some(420));
        assert_eq!(list.lookup(&g, 1000), None);
        drop(g);
        assert!(list.remove(42));
        assert!(!list.remove(42));
        let g = t.read_lock();
        assert_eq!(list.lookup(&g, 42), None);
        drop(g);
        assert_eq!(list.len(), 99);
    }

    #[test]
    fn update_replaces_value_and_defers_old() {
        let (rcu, cache) = setup();
        let list: RcuList<u64> = RcuList::new(Arc::clone(&cache));
        let t = rcu.register();
        list.insert(7, 1).unwrap();
        assert!(list.update(7, 2).unwrap());
        assert!(!list.update(8, 2).unwrap());
        let g = t.read_lock();
        assert_eq!(list.lookup(&g, 7), Some(2));
        drop(g);
        assert_eq!(cache.stats().deferred_frees, 1);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn reader_sees_old_or_new_never_garbage() {
        let (rcu, cache) = setup();
        let list: Arc<RcuList<[u64; 2]>> = Arc::new(RcuList::new(cache));
        list.insert(1, [5, 5]).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let list = Arc::clone(&list);
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let t = rcu.register();
                    while !stop.load(Ordering::Relaxed) {
                        let g = t.read_lock();
                        if let Some([a, b]) = list.lookup(&g, 1) {
                            // Invariant: both halves always match — a torn
                            // or reclaimed read would break it.
                            assert_eq!(a, b, "reader saw inconsistent value");
                        }
                    }
                })
            })
            .collect();
        for i in 0..20_000u64 {
            list.update(1, [i, i]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn for_each_visits_all() {
        let (rcu, cache) = setup();
        let list: RcuList<u64> = RcuList::new(cache);
        let t = rcu.register();
        for i in 0..10 {
            list.insert(i, i).unwrap();
        }
        let g = t.read_lock();
        let mut sum = 0;
        list.for_each(&g, |_, v| sum += *v);
        assert_eq!(sum, 45);
    }

    #[test]
    #[should_panic(expected = "different RCU domain")]
    fn cross_domain_guard_panics() {
        let (_rcu, cache) = setup();
        let list: RcuList<u64> = RcuList::new(cache);
        let other = Rcu::new();
        let t = other.register();
        let g = t.read_lock();
        let _ = list.lookup(&g, 1);
    }

    #[test]
    fn drop_frees_all_nodes() {
        let (_rcu, cache) = setup();
        {
            let list: RcuList<u64> = RcuList::new(Arc::clone(&cache));
            for i in 0..50 {
                list.insert(i, i).unwrap();
            }
        }
        cache.quiesce();
        assert_eq!(cache.stats().live_objects, 0);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn oversized_node_rejected() {
        let (_rcu, cache) = setup();
        let _list: RcuList<[u64; 32]> = RcuList::new(cache);
    }

    fn setup_with_backend(backend: ReclaimBackend) -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        use pbs_rcu::reclaim::{domain_for, ReclaimConfig};
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
        let cache: Arc<dyn ObjectAllocator> =
            PrudenceCache::with_domain("list-nodes", 64, EngineConfig::new(2), pages, domain);
        (rcu, cache)
    }

    #[test]
    fn robust_backends_walk_with_per_hop_protection() {
        for backend in [ReclaimBackend::Hp, ReclaimBackend::Hyaline] {
            let (rcu, cache) = setup_with_backend(backend);
            let list: RcuList<u64> = RcuList::new(cache);
            let t = rcu.register();
            for i in 0..50 {
                list.insert(i, i * 2).unwrap();
            }
            for i in 0..25 {
                assert!(list.update(i, i * 3).unwrap());
            }
            let g = t.read_lock();
            assert_eq!(list.lookup(&g, 10), Some(30), "{backend}");
            assert_eq!(list.lookup(&g, 40), Some(80), "{backend}");
            assert_eq!(list.lookup(&g, 99), None, "{backend}");
            let mut count = 0;
            list.for_each(&g, |_, _| count += 1);
            assert_eq!(count, 50, "{backend}");
            drop(g);
        }
    }

    /// Delegates to a real cache but routes deferred frees into a
    /// reclamation domain over a *different* `Rcu` — the misconfiguration
    /// `check_guard`'s backend check exists to catch: a guard from the
    /// allocator's own registry passes the domain-id check while the hp
    /// domain that actually frees the nodes never scans that registry, so
    /// the guard's hazards protect nothing.
    struct MiswiredAlloc {
        inner: Arc<dyn ObjectAllocator>,
        domain: Arc<dyn pbs_rcu::reclaim::ReclamationDomain>,
    }

    impl ObjectAllocator for MiswiredAlloc {
        fn allocate(&self) -> Result<ObjPtr, AllocError> {
            self.inner.allocate()
        }
        unsafe fn free(&self, obj: ObjPtr) {
            self.inner.free(obj)
        }
        unsafe fn free_deferred(&self, obj: ObjPtr) {
            self.inner.free_deferred(obj)
        }
        fn object_size(&self) -> usize {
            self.inner.object_size()
        }
        fn name(&self) -> &str {
            "miswired"
        }
        fn rcu(&self) -> &Arc<Rcu> {
            self.inner.rcu()
        }
        fn reclaim_domain(&self) -> Option<&Arc<dyn pbs_rcu::reclaim::ReclamationDomain>> {
            Some(&self.domain)
        }
        fn stats(&self) -> pbs_alloc_api::CacheStatsSnapshot {
            self.inner.stats()
        }
        fn quiesce(&self) {
            self.inner.quiesce()
        }
    }

    #[test]
    #[should_panic(expected = "reclamation backend")]
    fn matching_domain_guard_with_unwatched_backend_panics() {
        use pbs_rcu::reclaim::{domain_for, ReclaimConfig};
        let (rcu, cache) = setup();
        let other = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = domain_for(other, ReclaimBackend::Hp, ReclaimConfig::default());
        let alloc: Arc<dyn ObjectAllocator> = Arc::new(MiswiredAlloc {
            inner: cache,
            domain,
        });
        let list: RcuList<u64> = RcuList::new(alloc);
        let t = rcu.register();
        let g = t.read_lock();
        let _ = list.lookup(&g, 1);
    }
}
