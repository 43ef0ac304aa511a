//! RCU-protected binary search tree with copy-on-update writers.
//!
//! The paper's motivation (§3.1) singles out trees: "tree re-balancing
//! results in multiple deferred objects" — a single logical update can
//! defer several old node versions at once, amplifying the deferred-free
//! burst the allocator must absorb. This tree reproduces that pattern:
//!
//! * readers traverse wait-free under a [`ReadGuard`],
//! * writers serialize on a tree lock and never mutate reachable nodes in
//!   place: an update copies the node, a removal with two children copies
//!   the successor *and* every node on the path between (an internal
//!   restructuring in the spirit of RCU balanced trees), deferring all
//!   replaced versions.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use pbs_alloc_api::{AllocError, ObjectAllocator};
use pbs_rcu::{ReadGuard, TraversalKind};

use crate::NodeAlloc;

#[repr(C)]
struct Node<T> {
    key: u64,
    value: T,
    left: AtomicPtr<Node<T>>,
    right: AtomicPtr<Node<T>>,
}

/// An RCU-protected binary search tree keyed by `u64`.
///
/// Values must be `Copy` (deferred reclamation frees memory without
/// running destructors). Writers are serialized; readers never block.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::prudence::PrudenceCache;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_structs::RcuBst;
///
/// let pages = Arc::new(PageAllocator::new());
/// let rcu = Arc::new(Rcu::new());
/// let cache = PrudenceCache::new("bst", 64, EngineConfig::new(2), pages, Arc::clone(&rcu));
///
/// let tree: RcuBst<u64> = RcuBst::new(cache);
/// let reader = rcu.register();
/// tree.insert(5, 50)?;
/// tree.insert(3, 30)?;
/// let guard = reader.read_lock();
/// assert_eq!(tree.lookup(&guard, 3), Some(30));
/// # drop(guard);
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct RcuBst<T> {
    root: AtomicPtr<Node<T>>,
    nodes: NodeAlloc,
    writer: Mutex<()>,
    len: AtomicUsize,
    /// Deferred node versions across the tree's lifetime (diagnostics for
    /// the multiple-deferrals-per-update claim).
    deferred_versions: AtomicU64,
    _marker: PhantomData<T>,
}

// SAFETY: nodes are plain data (T: Copy + Send + Sync) behind atomics;
// mutation is serialized by `writer`, reclamation by RCU.
unsafe impl<T: Copy + Send + Sync> Send for RcuBst<T> {}
unsafe impl<T: Copy + Send + Sync> Sync for RcuBst<T> {}

impl<T> std::fmt::Debug for RcuBst<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuBst")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Copy + Send + Sync> RcuBst<T> {
    /// Creates an empty tree whose nodes live in `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if the allocator's objects are too small or under-aligned
    /// for a node of `T`.
    pub fn new(alloc: Arc<dyn ObjectAllocator>) -> Self {
        Self {
            root: AtomicPtr::new(ptr::null_mut()),
            nodes: NodeAlloc::new::<Node<T>>(alloc, "tree"),
            writer: Mutex::new(()),
            len: AtomicUsize::new(0),
            deferred_versions: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }

    fn alloc_node(
        &self,
        key: u64,
        value: T,
        left: *mut Node<T>,
        right: *mut Node<T>,
    ) -> Result<*mut Node<T>, AllocError> {
        self.nodes.alloc_node(Node {
            key,
            value,
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
        })
    }

    fn defer_node(&self, node: *mut Node<T>) {
        self.deferred_versions.fetch_add(1, Ordering::Relaxed);
        // SAFETY: node is unlinked from the tree (only pre-existing
        // readers can still see it) and deferred exactly once. Under a
        // robust backend both child links are poisoned before the defer
        // (see `NodeAlloc::retire`), so callers must finish reading the
        // node's children *before* deferring it — all do, since the
        // copies adopt them.
        unsafe { self.nodes.retire(node, [&(*node).left, &(*node).right]) };
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Old node versions deferred so far (diagnostics: removals of
    /// two-child nodes defer several per operation).
    pub fn deferred_versions(&self) -> u64 {
        self.deferred_versions.load(Ordering::Relaxed)
    }

    /// Looks up `key` under an RCU read guard.
    ///
    /// The descent runs as a backend-aware protected traversal: plain
    /// `Acquire` loads under epoch, hazard-published hand-over-hand hops
    /// under hp, and per-hop ejection checkpoints (with retry-from-root)
    /// under hyaline.
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain or one whose
    /// reclamation backend does not watch this tree's domain.
    pub fn lookup(&self, guard: &ReadGuard<'_>, key: u64) -> Option<T> {
        self.nodes.check_guard(guard);
        guard.walk(self.nodes.kind, |t| {
            let mut cur = t.load(&self.root)?;
            while !cur.is_null() {
                // SAFETY: `t.load` only returns pointers it protects for
                // this hop: reachable under epoch, hazard-revalidated
                // under hp, captured-and-not-ejected under hyaline.
                let node = unsafe { &*cur };
                match key.cmp(&node.key) {
                    std::cmp::Ordering::Equal => {
                        let value = node.value;
                        // Confirm the copy was taken under live protection
                        // before letting it escape the walk.
                        t.checkpoint()?;
                        return Ok(Some(value));
                    }
                    std::cmp::Ordering::Less => cur = t.load(&node.left)?,
                    std::cmp::Ordering::Greater => cur = t.load(&node.right)?,
                }
            }
            Ok(None)
        })
    }

    /// In-order traversal under a guard.
    ///
    /// Under epoch this is the classic explicit-stack walk. Under the
    /// robust backends a stack of raw ancestor pointers is exactly the
    /// bug this layer exists to fix — after a mid-walk ejection (or a
    /// hazard revalidation failure) every popped entry may point at
    /// reclaimed memory, and no saved pointer can be re-trusted. So the
    /// robust walk never keeps a stack: each emission re-seeks, from the
    /// root, the smallest key strictly greater than the last one
    /// emitted, holding the best candidate in a dedicated hazard slot
    /// for the length of the descent. On retry the walk restarts from
    /// the root and the `last`-emitted cursor (which lives outside the
    /// walk) guarantees forward progress without duplicates.
    ///
    /// # Panics
    ///
    /// Panics on a cross-domain or backend-mismatched guard.
    pub fn for_each(&self, guard: &ReadGuard<'_>, mut f: impl FnMut(u64, &T)) {
        self.nodes.check_guard(guard);
        if self.nodes.kind == TraversalKind::Epoch {
            return self.for_each_epoch(f);
        }
        let mut last: Option<u64> = None;
        loop {
            let next = guard.walk(self.nodes.kind, |t| {
                let mut cur = t.load(&self.root)?;
                let mut best: *mut Node<T> = ptr::null_mut();
                while !cur.is_null() {
                    // SAFETY: per-hop protected load, as in `lookup`.
                    let node = unsafe { &*cur };
                    let above = match last {
                        Some(l) => node.key > l,
                        None => true,
                    };
                    if above {
                        // New best candidate for the next emission; park
                        // it in the walk's candidate slot so it stays
                        // protected while the descent moves on.
                        best = cur;
                        t.pin_candidate(cur);
                        cur = t.load(&node.left)?;
                    } else {
                        cur = t.load(&node.right)?;
                    }
                }
                if best.is_null() {
                    return Ok(None);
                }
                // SAFETY: `best` is held by the candidate slot (hp) or by
                // the still-valid pin (hyaline, confirmed just below).
                let node = unsafe { &*best };
                let (key, value) = (node.key, node.value);
                t.checkpoint()?;
                Ok(Some((key, value)))
            });
            match next {
                Some((key, value)) => {
                    // Call out to the visitor outside the walk: a retry
                    // can then never re-emit, and a lookup from inside
                    // `f` starts its own depth-1 walk.
                    f(key, &value);
                    last = Some(key);
                }
                None => return,
            }
        }
    }

    /// The epoch-only in-order walk: an explicit stack of raw pointers,
    /// sound because an epoch pin protects everything reachable at any
    /// point during the pin — popped ancestors included.
    fn for_each_epoch(&self, mut f: impl FnMut(u64, &T)) {
        let mut stack = Vec::new();
        let mut cur = self.root.load(Ordering::Acquire);
        while !cur.is_null() || !stack.is_empty() {
            while !cur.is_null() {
                stack.push(cur);
                // SAFETY: guard-protected (epoch: pin covers reachability).
                cur = unsafe { (*cur).left.load(Ordering::Acquire) };
            }
            let node = stack.pop().expect("stack non-empty");
            // SAFETY: guard-protected (epoch: pin covers reachability).
            let node_ref = unsafe { &*node };
            f(node_ref.key, &node_ref.value);
            cur = node_ref.right.load(Ordering::Acquire);
        }
    }

    /// Inserts `key → value`; an existing key is updated copy-on-write
    /// (the old version is deferred). Returns `true` if an entry was
    /// replaced.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on allocator exhaustion (tree unchanged).
    pub fn insert(&self, key: u64, value: T) -> Result<bool, AllocError> {
        let _w = self.writer.lock();
        // SAFETY: writer lock held; links are stable under us. The read
        // phase below needs no per-hop hazard protection under any
        // backend: unlinking requires this same lock, so every node this
        // descent touches is still reachable, and reachable nodes cannot
        // have been deferred — no backend reclaims an object before it
        // is unlinked.
        unsafe {
            let mut link: *const AtomicPtr<Node<T>> = &self.root;
            let mut cur = (*link).load(Ordering::Acquire);
            while !cur.is_null() {
                match key.cmp(&(*cur).key) {
                    std::cmp::Ordering::Equal => {
                        // Copy-on-update: new version adopts both children.
                        let new = self.alloc_node(
                            key,
                            value,
                            (*cur).left.load(Ordering::Acquire),
                            (*cur).right.load(Ordering::Acquire),
                        )?;
                        (*link).store(new, Ordering::Release);
                        self.defer_node(cur);
                        return Ok(true);
                    }
                    std::cmp::Ordering::Less => link = &(*cur).left,
                    std::cmp::Ordering::Greater => link = &(*cur).right,
                }
                cur = (*link).load(Ordering::Acquire);
            }
            let node = self.alloc_node(key, value, ptr::null_mut(), ptr::null_mut())?;
            (*link).store(node, Ordering::Release);
        }
        self.len.fetch_add(1, Ordering::Relaxed);
        Ok(false)
    }

    /// Removes `key`, returning its value. A two-child removal copies the
    /// in-order successor into place and rebuilds the path down to it,
    /// deferring every replaced version — the multi-deferral pattern the
    /// paper attributes to tree updates.
    pub fn remove(&self, key: u64) -> Option<T> {
        let _w = self.writer.lock();
        // SAFETY: writer lock held throughout; every replaced or unlinked
        // node is deferred exactly once after being made unreachable for
        // new readers. As in `insert`, the descent only dereferences
        // reachable nodes, which no reclamation backend (robust or not)
        // can free out from under the lock that serializes unlinking.
        unsafe {
            let mut link: *const AtomicPtr<Node<T>> = &self.root;
            let mut cur = (*link).load(Ordering::Acquire);
            while !cur.is_null() {
                match key.cmp(&(*cur).key) {
                    std::cmp::Ordering::Less => link = &(*cur).left,
                    std::cmp::Ordering::Greater => link = &(*cur).right,
                    std::cmp::Ordering::Equal => {
                        let value = (*cur).value;
                        let left = (*cur).left.load(Ordering::Acquire);
                        let right = (*cur).right.load(Ordering::Acquire);
                        if left.is_null() || right.is_null() {
                            // Zero or one child: splice out.
                            let child = if left.is_null() { right } else { left };
                            (*link).store(child, Ordering::Release);
                            self.defer_node(cur);
                        } else {
                            // Two children: build a fresh copy of the path
                            // from the right child down to the in-order
                            // successor, with the successor's key/value
                            // hoisted into the removed node's position.
                            match self.remove_with_successor(cur, left, right) {
                                Ok(new_subtree) => {
                                    (*link).store(new_subtree, Ordering::Release);
                                }
                                Err(_) => return None, // allocation failed; tree unchanged
                            }
                        }
                        self.len.fetch_sub(1, Ordering::Relaxed);
                        return Some(value);
                    }
                }
                cur = (*link).load(Ordering::Acquire);
            }
        }
        None
    }

    /// Copies the successor path (see [`remove`](Self::remove)). On
    /// success, defers the removed node and every copied original.
    ///
    /// # Safety
    ///
    /// Writer lock held; `cur` has children `left` and `right`.
    unsafe fn remove_with_successor(
        &self,
        cur: *mut Node<T>,
        left: *mut Node<T>,
        right: *mut Node<T>,
    ) -> Result<*mut Node<T>, AllocError> {
        // Collect the path from `right` to the leftmost (successor) node.
        let mut path = Vec::new();
        let mut walk = right;
        loop {
            let next = (*walk).left.load(Ordering::Acquire);
            if next.is_null() {
                break;
            }
            path.push(walk);
            walk = next;
        }
        let successor = walk;
        // Rebuild bottom-up: the successor is spliced out (replaced by its
        // right child), every path node is copied.
        let mut rebuilt = (*successor).right.load(Ordering::Acquire);
        let mut copies = Vec::with_capacity(path.len() + 1);
        for &orig in path.iter().rev() {
            let copy = self.alloc_node(
                (*orig).key,
                (*orig).value,
                rebuilt,
                (*orig).right.load(Ordering::Acquire),
            );
            match copy {
                Ok(c) => {
                    copies.push(c);
                    rebuilt = c;
                }
                Err(e) => {
                    // Roll back: free the copies (never published).
                    for c in copies {
                        self.nodes.free(c);
                    }
                    return Err(e);
                }
            }
        }
        // New top node: successor's key/value, original left subtree, the
        // rebuilt right path (which degenerates to the successor's right
        // child when `right` itself was the successor).
        let top = match self.alloc_node((*successor).key, (*successor).value, left, rebuilt) {
            Ok(t) => t,
            Err(e) => {
                for c in copies {
                    self.nodes.free(c);
                }
                return Err(e);
            }
        };
        // Publish happens in the caller; defer all replaced originals:
        // the removed node, the successor, and every copied path node.
        self.defer_node(cur);
        self.defer_node(successor);
        for orig in path {
            self.defer_node(orig);
        }
        Ok(top)
    }
}

impl<T> Drop for RcuBst<T> {
    fn drop(&mut self) {
        // Exclusive access: free remaining nodes immediately.
        let mut stack = vec![self.root.load(Ordering::Acquire)];
        while let Some(node) = stack.pop() {
            if node.is_null() {
                continue;
            }
            // SAFETY: exclusive access during drop; each node freed once.
            unsafe {
                stack.push((*node).left.load(Ordering::Acquire));
                stack.push((*node).right.load(Ordering::Acquire));
                self.nodes.free(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::prudence::PrudenceCache;
    use pbs_mem::PageAllocator;
    use pbs_rcu::reclaim::ReclaimBackend;
    use pbs_rcu::{Rcu, RcuConfig};

    fn setup() -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache: Arc<dyn ObjectAllocator> = PrudenceCache::new(
            "bst-nodes",
            64,
            EngineConfig::new(2),
            pages,
            Arc::clone(&rcu),
        );
        (rcu, cache)
    }

    #[test]
    fn insert_lookup_inorder() {
        let (rcu, cache) = setup();
        let tree: RcuBst<u64> = RcuBst::new(cache);
        let t = rcu.register();
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            assert!(!tree.insert(k, k * 10).unwrap());
        }
        assert_eq!(tree.len(), 7);
        let g = t.read_lock();
        assert_eq!(tree.lookup(&g, 40), Some(400));
        assert_eq!(tree.lookup(&g, 41), None);
        let mut keys = Vec::new();
        tree.for_each(&g, |k, _| keys.push(k));
        assert_eq!(keys, vec![20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn update_defers_old_version() {
        let (rcu, cache) = setup();
        let tree: RcuBst<u64> = RcuBst::new(Arc::clone(&cache));
        let t = rcu.register();
        tree.insert(1, 10).unwrap();
        assert!(tree.insert(1, 11).unwrap());
        let g = t.read_lock();
        assert_eq!(tree.lookup(&g, 1), Some(11));
        drop(g);
        assert_eq!(tree.deferred_versions(), 1);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn remove_leaf_and_single_child() {
        let (rcu, cache) = setup();
        let tree: RcuBst<u64> = RcuBst::new(cache);
        let t = rcu.register();
        for k in [50u64, 30, 70, 20] {
            tree.insert(k, k).unwrap();
        }
        assert_eq!(tree.remove(20), Some(20)); // leaf
        assert_eq!(tree.remove(30), Some(30)); // had one child (now none)
        assert_eq!(tree.remove(99), None);
        let g = t.read_lock();
        let mut keys = Vec::new();
        tree.for_each(&g, |k, _| keys.push(k));
        assert_eq!(keys, vec![50, 70]);
    }

    #[test]
    fn remove_two_children_defers_multiple_versions() {
        let (rcu, cache) = setup();
        let tree: RcuBst<u64> = RcuBst::new(cache);
        let t = rcu.register();
        // Shape: 50 with children 30,70; 70 has left path 60 -> 55.
        for k in [50u64, 30, 70, 60, 55, 80] {
            tree.insert(k, k).unwrap();
        }
        let before = tree.deferred_versions();
        assert_eq!(tree.remove(50), Some(50));
        let deferred = tree.deferred_versions() - before;
        // The paper's claim: a tree restructuring defers several objects
        // at once (removed node + successor + copied path nodes).
        assert!(deferred >= 3, "expected multiple deferrals, got {deferred}");
        let g = t.read_lock();
        let mut keys = Vec::new();
        tree.for_each(&g, |k, _| keys.push(k));
        assert_eq!(keys, vec![30, 55, 60, 70, 80]);
        assert_eq!(tree.lookup(&g, 50), None);
        assert_eq!(tree.lookup(&g, 55), Some(55));
    }

    #[test]
    fn readers_see_consistent_tree_under_churn() {
        let (rcu, cache) = setup();
        let tree: Arc<RcuBst<[u64; 2]>> = Arc::new(RcuBst::new(cache));
        for k in 0..64 {
            tree.insert(k, [k, k]).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let tree = Arc::clone(&tree);
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let t = rcu.register();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let g = t.read_lock();
                        if let Some([a, b]) = tree.lookup(&g, k % 64) {
                            assert_eq!(a, b, "torn value under churn");
                        }
                        drop(g);
                        k += 1;
                    }
                });
            }
            for i in 0..10_000u64 {
                let k = i % 64;
                if i % 7 == 0 {
                    tree.remove(k);
                    tree.insert(k, [i, i]).unwrap();
                } else {
                    tree.insert(k, [i, i]).unwrap();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(tree.len(), 64);
    }

    fn setup_with_backend(backend: ReclaimBackend) -> (Arc<Rcu>, Arc<dyn ObjectAllocator>) {
        use pbs_rcu::reclaim::{domain_for, ReclaimConfig};
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
        let cache: Arc<dyn ObjectAllocator> =
            PrudenceCache::with_domain("bst-nodes", 64, EngineConfig::new(2), pages, domain);
        (rcu, cache)
    }

    #[test]
    fn robust_backends_keep_inorder_walks_exact() {
        // The seek-above walk (no ancestor stack) must produce the same
        // in-order sequence as the epoch stack walk, including across a
        // two-child removal that hoists the successor's value.
        for backend in [ReclaimBackend::Hp, ReclaimBackend::Hyaline] {
            let (rcu, cache) = setup_with_backend(backend);
            let tree: RcuBst<u64> = RcuBst::new(cache);
            let t = rcu.register();
            for k in [50u64, 30, 70, 20, 40, 60, 80] {
                tree.insert(k, k * 10).unwrap();
            }
            assert_eq!(tree.remove(50), Some(500));
            let g = t.read_lock();
            let mut entries = Vec::new();
            tree.for_each(&g, |k, v| entries.push((k, *v)));
            assert_eq!(
                entries,
                vec![(20, 200), (30, 300), (40, 400), (60, 600), (70, 700), (80, 800)],
                "{backend:?}"
            );
            assert_eq!(tree.lookup(&g, 60), Some(600), "{backend:?}");
            assert_eq!(tree.lookup(&g, 50), None, "{backend:?}");
            // Lookups from inside the visitor start their own walk.
            let mut hits = 0;
            tree.for_each(&g, |k, _| {
                if tree.lookup(&g, k).is_some() {
                    hits += 1;
                }
            });
            assert_eq!(hits, 6, "{backend:?}");
        }
    }

    #[test]
    fn drop_frees_everything() {
        let (_rcu, cache) = setup();
        {
            let tree: RcuBst<u64> = RcuBst::new(Arc::clone(&cache));
            for k in 0..100 {
                tree.insert(k * 7 % 100, k).unwrap();
            }
        }
        cache.quiesce();
        assert_eq!(cache.stats().live_objects, 0);
    }
}
