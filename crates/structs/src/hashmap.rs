//! RCU-protected fixed-bucket hash map with per-bucket chains.

use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pbs_alloc_api::{AllocError, ObjectAllocator};
use pbs_rcu::ReadGuard;

use crate::NodeAlloc;

#[repr(C)]
struct Node<K, V> {
    key: K,
    value: V,
    next: AtomicPtr<Node<K, V>>,
}

/// An RCU hash table shaped like the kernel's dentry cache / connection
/// tables: a fixed power-of-two bucket array whose chains are traversed by
/// wait-free RCU readers, with per-bucket writer locks. Node memory comes
/// from the [`ObjectAllocator`] supplied at construction and old versions
/// are deferred-freed on update/remove.
///
/// Keys and values must be `Copy` (reclamation frees memory without
/// running destructors) and keys must be `Hash + Eq`.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::prudence::PrudenceCache;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_structs::RcuHashMap;
///
/// let pages = Arc::new(PageAllocator::new());
/// let rcu = Arc::new(Rcu::new());
/// let cache = PrudenceCache::new("map-nodes", 64, EngineConfig::new(2), pages, Arc::clone(&rcu));
///
/// let map: RcuHashMap<u64, u64> = RcuHashMap::new(cache, 64);
/// let reader = rcu.register();
/// map.insert(3, 30)?;
/// let guard = reader.read_lock();
/// assert_eq!(map.get(&guard, &3), Some(30));
/// # drop(guard);
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct RcuHashMap<K, V> {
    buckets: Vec<AtomicPtr<Node<K, V>>>,
    locks: Vec<Mutex<()>>,
    mask: usize,
    nodes: NodeAlloc,
    len: AtomicUsize,
    _marker: PhantomData<(K, V)>,
}

// SAFETY: nodes are plain data behind atomics; per-bucket mutation is
// serialized by `locks` and reclamation by RCU.
unsafe impl<K: Copy + Send + Sync, V: Copy + Send + Sync> Send for RcuHashMap<K, V> {}
unsafe impl<K: Copy + Send + Sync, V: Copy + Send + Sync> Sync for RcuHashMap<K, V> {}

impl<K, V> std::fmt::Debug for RcuHashMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuHashMap")
            .field("buckets", &self.buckets.len())
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> RcuHashMap<K, V>
where
    K: Copy + Send + Sync + Hash + Eq,
    V: Copy + Send + Sync,
{
    /// Creates a map with `buckets` chains (rounded up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if the allocator's objects cannot hold a node, or `buckets`
    /// is zero.
    pub fn new(alloc: Arc<dyn ObjectAllocator>, buckets: usize) -> Self {
        assert!(buckets > 0, "need at least one bucket");
        let n = buckets.next_power_of_two();
        Self {
            buckets: (0..n).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
            locks: (0..n).map(|_| Mutex::new(())).collect(),
            mask: n - 1,
            nodes: NodeAlloc::new::<Node<K, V>>(alloc, "map"),
            len: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    fn bucket_of(&self, key: &K) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) & self.mask
    }

    fn alloc_node(&self, key: K, value: V, next: *mut Node<K, V>) -> Result<*mut Node<K, V>, AllocError> {
        self.nodes.alloc_node(Node {
            key,
            value,
            next: AtomicPtr::new(next),
        })
    }

    /// Retires an unlinked node; under a robust backend its chain link
    /// is poisoned first so parked traversals restart from the bucket
    /// head instead of following it (see `NodeAlloc::retire`).
    ///
    /// # Safety
    ///
    /// `node` must be unlinked and retired exactly once.
    unsafe fn retire(&self, node: *mut Node<K, V>) {
        self.nodes.retire(node, [&(*node).next]);
    }

    /// Number of entries (approximate under concurrent writers).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts `key → value`, replacing (copy-on-update + deferred free)
    /// any existing entry. Returns `true` if an entry was replaced.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if node allocation fails; the map is
    /// unchanged.
    pub fn insert(&self, key: K, value: V) -> Result<bool, AllocError> {
        let b = self.bucket_of(&key);
        let _w = self.locks[b].lock();
        // SAFETY: bucket lock held; chain stable under us. The chain scan
        // needs no per-hop hazard protection under any backend: unlinking
        // requires this same bucket lock, so every node the scan touches
        // is still reachable, and no backend reclaims an object before it
        // is unlinked.
        unsafe {
            let mut prev: *const AtomicPtr<Node<K, V>> = &self.buckets[b];
            let mut cur = (*prev).load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    let next = (*cur).next.load(Ordering::Acquire);
                    let new = self.alloc_node(key, value, next)?;
                    (*prev).store(new, Ordering::Release);
                    self.retire(cur);
                    return Ok(true);
                }
                prev = &(*cur).next;
                cur = (*prev).load(Ordering::Acquire);
            }
            let head = self.buckets[b].load(Ordering::Acquire);
            let node = self.alloc_node(key, value, head)?;
            self.buckets[b].store(node, Ordering::Release);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        Ok(false)
    }

    /// Looks up `key` under a read guard, returning a copy of the value.
    ///
    /// The chain walk is a backend-aware protected traversal: plain
    /// `Acquire` loads under epoch, hazard-published hand-over-hand hops
    /// under hp, and per-hop ejection checkpoints (with retry-from-head)
    /// under hyaline.
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain or one whose
    /// reclamation backend does not watch this map's domain.
    pub fn get(&self, guard: &ReadGuard<'_>, key: &K) -> Option<V> {
        self.nodes.check_guard(guard);
        let b = self.bucket_of(key);
        guard.walk(self.nodes.kind, |t| {
            let mut cur = t.load(&self.buckets[b])?;
            while !cur.is_null() {
                // SAFETY: `t.load` only returns pointers it protects for
                // this hop (see `RcuList::lookup`).
                let node = unsafe { &*cur };
                if node.key == *key {
                    let value = node.value;
                    // Confirm the copy was taken under live protection
                    // before letting it escape the walk.
                    t.checkpoint()?;
                    return Ok(Some(value));
                }
                cur = t.load(&node.next)?;
            }
            Ok(None)
        })
    }

    /// Removes `key`, deferring the free of its node. Returns the removed
    /// value, if any.
    pub fn remove(&self, key: &K) -> Option<V> {
        let b = self.bucket_of(key);
        let _w = self.locks[b].lock();
        // SAFETY: as in `insert` (lock-serialized reachability).
        unsafe {
            let mut prev: *const AtomicPtr<Node<K, V>> = &self.buckets[b];
            let mut cur = (*prev).load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == *key {
                    let next = (*cur).next.load(Ordering::Acquire);
                    let value = (*cur).value;
                    (*prev).store(next, Ordering::Release);
                    self.retire(cur);
                    self.len.fetch_sub(1, Ordering::Relaxed);
                    return Some(value);
                }
                prev = &(*cur).next;
                cur = (*prev).load(Ordering::Acquire);
            }
        }
        None
    }

    /// Inserts `key → value` only if `key` is absent. Returns `true` if it
    /// inserted, `false` if the key already existed (map unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] if node allocation fails.
    pub fn insert_if_absent(&self, key: K, value: V) -> Result<bool, AllocError> {
        let b = self.bucket_of(&key);
        let _w = self.locks[b].lock();
        // SAFETY: as in `insert` (lock-serialized reachability).
        unsafe {
            let mut cur = self.buckets[b].load(Ordering::Acquire);
            while !cur.is_null() {
                if (*cur).key == key {
                    return Ok(false);
                }
                cur = (*cur).next.load(Ordering::Acquire);
            }
            let head = self.buckets[b].load(Ordering::Acquire);
            let node = self.alloc_node(key, value, head)?;
            self.buckets[b].store(node, Ordering::Release);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Visits every entry under a read guard.
    ///
    /// Each bucket chain runs as one protected walk; a retry (hazard
    /// revalidation failure or hyaline ejection) restarts the chain from
    /// its head, and the positional `emitted` cursor — which lives
    /// outside the walk — skips entries the visitor already saw, so `f`
    /// never observes a duplicate from the same chain position.
    ///
    /// # Panics
    ///
    /// Panics on a cross-domain or backend-mismatched guard.
    pub fn for_each(&self, guard: &ReadGuard<'_>, mut f: impl FnMut(&K, &V)) {
        self.nodes.check_guard(guard);
        for bucket in &self.buckets {
            let mut emitted = 0usize;
            guard.walk(self.nodes.kind, |t| {
                let mut index = 0usize;
                let mut cur = t.load(bucket)?;
                while !cur.is_null() {
                    // SAFETY: per-hop protected load, as in `get`.
                    let node = unsafe { &*cur };
                    if index >= emitted {
                        let (key, value) = (node.key, node.value);
                        t.checkpoint()?;
                        // Past the checkpoint the copies are proven to
                        // have been taken under protection; hand them to
                        // the visitor before advancing the cursor.
                        f(&key, &value);
                        emitted += 1;
                    }
                    index += 1;
                    cur = t.load(&node.next)?;
                }
                Ok(())
            });
        }
    }
}

impl<K, V> Drop for RcuHashMap<K, V> {
    fn drop(&mut self) {
        for bucket in &self.buckets {
            let mut cur = bucket.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: exclusive access during drop.
                unsafe {
                    let next = (*cur).next.load(Ordering::Acquire);
                    self.nodes.free(cur);
                    cur = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::prudence::PrudenceCache;
    use pbs_alloc_api::slub::SlubCache;
    use pbs_mem::PageAllocator;
    use pbs_rcu::reclaim::ReclaimBackend;
    use pbs_rcu::{Rcu, RcuConfig};

    fn setup_prudence() -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache: Arc<dyn ObjectAllocator> = PrudenceCache::new(
            "map-nodes",
            64,
            EngineConfig::new(2),
            pages,
            Arc::clone(&rcu),
        );
        (rcu, cache)
    }

    fn setup_slub() -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache: Arc<dyn ObjectAllocator> = SlubCache::new(
            "map-nodes",
            64,
            EngineConfig::new(2),
            pages,
            Arc::clone(&rcu),
        );
        (rcu, cache)
    }

    fn smoke(rcu: Arc<Rcu>, cache: Arc<dyn ObjectAllocator>) {
        let map: RcuHashMap<u64, u64> = RcuHashMap::new(Arc::clone(&cache), 16);
        let t = rcu.register();
        for i in 0..200 {
            assert!(!map.insert(i, i * 2).unwrap());
        }
        assert_eq!(map.len(), 200);
        let g = t.read_lock();
        for i in 0..200 {
            assert_eq!(map.get(&g, &i), Some(i * 2));
        }
        assert_eq!(map.get(&g, &999), None);
        drop(g);
        assert!(map.insert(7, 700).unwrap(), "replacement reported");
        let g = t.read_lock();
        assert_eq!(map.get(&g, &7), Some(700));
        drop(g);
        for i in 0..100 {
            assert_eq!(map.remove(&i), Some(if i == 7 { 700 } else { i * 2 }));
        }
        assert_eq!(map.remove(&1000), None);
        assert!(map.insert_if_absent(100, 1).is_ok_and(|inserted| !inserted));
        assert!(map.insert_if_absent(5000, 1).is_ok_and(|inserted| inserted));
        assert!(map.remove(&5000).is_some());
        assert_eq!(map.len(), 100);
        drop(map);
        cache.quiesce();
        assert_eq!(cache.stats().live_objects, 0);
    }

    #[test]
    fn smoke_on_prudence() {
        let (rcu, cache) = setup_prudence();
        smoke(rcu, cache);
    }

    #[test]
    fn smoke_on_slub() {
        let (rcu, cache) = setup_slub();
        smoke(rcu, cache);
    }

    #[test]
    fn concurrent_readers_and_updaters() {
        let (rcu, cache) = setup_prudence();
        let map: Arc<RcuHashMap<u64, [u64; 2]>> = Arc::new(RcuHashMap::new(cache, 64));
        for i in 0..64 {
            map.insert(i, [0, 0]).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let map = Arc::clone(&map);
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let t = rcu.register();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let g = t.read_lock();
                        if let Some([a, b]) = map.get(&g, &(i % 64)) {
                            assert_eq!(a, b);
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let k = w * 32 + i % 32;
                        map.insert(k, [i, i]).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(map.len(), 64);
    }

    #[test]
    fn for_each_counts_entries() {
        let (rcu, cache) = setup_prudence();
        let map: RcuHashMap<u64, u64> = RcuHashMap::new(cache, 8);
        let t = rcu.register();
        for i in 0..30 {
            map.insert(i, 1).unwrap();
        }
        let g = t.read_lock();
        let mut count = 0;
        map.for_each(&g, |_, _| count += 1);
        assert_eq!(count, 30);
    }

    fn setup_with_backend(backend: ReclaimBackend) -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        use pbs_rcu::reclaim::{domain_for, ReclaimConfig};
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
        let cache: Arc<dyn ObjectAllocator> =
            PrudenceCache::with_domain("map-nodes", 64, EngineConfig::new(2), pages, domain);
        (rcu, cache)
    }

    #[test]
    fn robust_backends_walk_chains_with_per_hop_protection() {
        for backend in [ReclaimBackend::Hp, ReclaimBackend::Hyaline] {
            let (rcu, cache) = setup_with_backend(backend);
            let map: RcuHashMap<u64, u64> = RcuHashMap::new(cache, 8);
            let t = rcu.register();
            for i in 0..60 {
                map.insert(i, i * 2).unwrap();
            }
            for i in 0..30 {
                map.insert(i, i * 3).unwrap();
            }
            let g = t.read_lock();
            assert_eq!(map.get(&g, &10), Some(30), "{backend:?}");
            assert_eq!(map.get(&g, &45), Some(90), "{backend:?}");
            assert_eq!(map.get(&g, &99), None, "{backend:?}");
            let mut count = 0;
            let mut sum = 0;
            map.for_each(&g, |k, v| {
                count += 1;
                sum += k + v;
            });
            assert_eq!(count, 60, "{backend:?}");
            let expect: u64 = (0..30).map(|i| i * 4).sum::<u64>()
                + (30..60).map(|i| i * 3).sum::<u64>();
            assert_eq!(sum, expect, "{backend:?}");
        }
    }

    #[test]
    #[should_panic(expected = "different RCU domain")]
    fn cross_domain_guard_panics() {
        let (_rcu, cache) = setup_prudence();
        let map: RcuHashMap<u64, u64> = RcuHashMap::new(cache, 8);
        let other = Rcu::new();
        let t = other.register();
        let g = t.read_lock();
        let _ = map.get(&g, &1);
    }
}
