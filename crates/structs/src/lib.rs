//! # pbs-structs — RCU-protected data structures over pluggable allocators
//!
//! The kernel subsystems the paper benchmarks (VFS dentry hash, inode
//! tables, socket tables, epoll) are all RCU-protected linked structures
//! whose nodes live in slab caches. This crate provides the userspace
//! equivalents, parameterized over any [`ObjectAllocator`] so the same
//! workload can run on the SLUB baseline or on Prudence:
//!
//! * [`RcuList`] — the paper's Figure 1 example: a keyed singly-linked
//!   list with wait-free readers and copy-on-update writers that defer
//!   freeing of old node versions.
//! * [`RcuHashMap`] — a fixed-bucket hash table with per-bucket RCU
//!   chains (the shape of the dentry cache and TCP established-connection
//!   tables).
//! * [`RcuBst`] — a binary search tree whose restructuring removals defer
//!   *multiple* old node versions per operation (paper §3.1: "tree
//!   re-balancing results in multiple deferred objects").
//!
//! Values must be `Copy`: deferred reclamation frees node *memory* after
//! the grace period without running destructors, exactly like `kfree`-ing
//! a kernel struct.
//!
//! [`ObjectAllocator`]: pbs_alloc_api::ObjectAllocator
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_alloc_api::prudence::PrudenceCache;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//! use pbs_structs::RcuList;
//!
//! let pages = Arc::new(PageAllocator::new());
//! let rcu = Arc::new(Rcu::new());
//! let cache = PrudenceCache::new("nodes", 64, EngineConfig::new(2), pages, Arc::clone(&rcu));
//!
//! let list: RcuList<u64> = RcuList::new(cache);
//! let reader = rcu.register();
//!
//! list.insert(1, 100)?;
//! list.update(1, 200)?; // copy-update; old version deferred-freed
//! let guard = reader.read_lock();
//! assert_eq!(list.lookup(&guard, 1), Some(200));
//! # drop(guard);
//! # Ok::<(), pbs_alloc_api::AllocError>(())
//! ```

mod bst;
mod hashmap;
mod list;

pub use bst::RcuBst;
pub use hashmap::RcuHashMap;
pub use list::RcuList;

use std::ptr::NonNull;
use std::sync::atomic::AtomicPtr;
use std::sync::Arc;

use pbs_alloc_api::{AllocError, ObjPtr, ObjectAllocator};
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::{ReadGuard, TraversalKind};

/// What every structure here knows about the allocator its nodes live in:
/// which RCU domain guards must come from, which reclamation backend the
/// nodes are deferred into (and so how walks protect each hop), and the
/// one place a node is retired.
struct NodeAlloc {
    alloc: Arc<dyn ObjectAllocator>,
    domain_id: u64,
    /// The backend node frees defer into; enforced against guards in
    /// [`check_guard`](Self::check_guard).
    backend: ReclaimBackend,
    /// The per-hop protection discipline of every read-side walk.
    kind: TraversalKind,
    /// "list" / "map" / "tree", for panic messages.
    what: &'static str,
}

impl NodeAlloc {
    /// Wraps `alloc` for a structure whose nodes are `N`.
    ///
    /// # Panics
    ///
    /// Panics if the allocator's objects are too small or under-aligned
    /// for an `N`.
    fn new<N>(alloc: Arc<dyn ObjectAllocator>, what: &'static str) -> Self {
        assert!(
            std::mem::size_of::<N>() <= alloc.object_size(),
            "allocator objects too small: need {} bytes, cache serves {}",
            std::mem::size_of::<N>(),
            alloc.object_size()
        );
        assert!(
            std::mem::align_of::<N>() <= 8,
            "allocator objects are 8-byte aligned; node needs more"
        );
        let domain_id = alloc.rcu().id();
        let backend = alloc
            .reclaim_domain()
            .map(|d| d.backend())
            .unwrap_or(ReclaimBackend::Epoch);
        Self {
            alloc,
            domain_id,
            backend,
            kind: TraversalKind::from(backend),
            what,
        }
    }

    #[inline]
    fn check_guard(&self, guard: &ReadGuard<'_>) {
        assert_eq!(
            guard.domain_id(),
            self.domain_id,
            "read guard belongs to a different RCU domain than this {}'s allocator",
            self.what
        );
        // Same registry is necessary but not sufficient: the guard's
        // domain must also be watched by the backend the nodes are
        // reclaimed through, or the pin (epoch) / hazard slots (hp) /
        // batch capture (hyaline) it relies on protect nothing.
        assert!(
            guard.protects_backend(self.backend),
            "read guard's RCU domain is not watched by this {}'s `{}` reclamation backend",
            self.what,
            self.backend.label()
        );
    }

    /// Allocates an object and moves `node` into it.
    #[inline]
    fn alloc_node<N>(&self, node: N) -> Result<*mut N, AllocError> {
        let ptr = self.alloc.allocate()?.as_ptr().cast::<N>();
        // SAFETY: the object is exclusively ours, large and aligned enough
        // for an `N` (checked in `new`).
        unsafe { ptr.write(node) };
        Ok(ptr)
    }

    fn obj_of<N>(node: *mut N) -> ObjPtr {
        // SAFETY: node pointers are never null where this is called.
        ObjPtr::new(unsafe { NonNull::new_unchecked(node.cast()) })
    }

    /// Frees a node no reader can reach (never published, or the
    /// structure is being dropped).
    ///
    /// # Safety
    ///
    /// `node` came from [`alloc_node`](Self::alloc_node), is unreachable,
    /// and is freed exactly once.
    unsafe fn free<N>(&self, node: *mut N) {
        self.alloc.free(Self::obj_of(node));
    }

    /// Retires an unlinked node: the single place link poisoning is
    /// applied. Under a robust backend the node's outgoing `links` are
    /// poisoned first: a traversal parked on the retired node must restart
    /// from the root (it gets [`pbs_rcu::Retry`]) rather than follow a
    /// link whose target can be reclaimed without this node's own link
    /// ever changing. Epoch walkers need the opposite — retired nodes keep
    /// their links so pinned readers can cross them — so epoch-backed
    /// structures never poison.
    ///
    /// `#[track_caller]`, so the deferred garbage is attributed to the
    /// structure's own retire site, not to this helper.
    ///
    /// # Safety
    ///
    /// `node` must be unlinked (unreachable for new readers) and retired
    /// exactly once; `links` are its outgoing link fields, which the
    /// caller has finished reading.
    #[track_caller]
    unsafe fn retire<N, const L: usize>(&self, node: *mut N, links: [&AtomicPtr<N>; L]) {
        if self.backend != ReclaimBackend::Epoch {
            for link in links {
                pbs_rcu::poison_link(link);
            }
        }
        self.alloc.free_deferred(Self::obj_of(node));
    }
}
