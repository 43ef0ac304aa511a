//! The baseline SLUB-style slab allocator, as a policy over the shared
//! slab engine.
//!
//! A faithful userspace analog of the allocator the Prudence paper compares
//! against: per-CPU object caches over per-node full/partial/free slab
//! lists, refill/flush in halves, grow/shrink against the page allocator.
//!
//! The module is one [`SlabPolicy`] over the shared [`SlabEngine`]; every
//! line that is not a SLUB decision is literally the code Prudence runs.
//! The engine's latent caches and latent slabs stay empty here, so its
//! refill and flush sizes are SLUB's whole cache and half, and the OOM
//! ladder's first rung is SLUB's consolidation of every CPU cache.
//!
//! **Deferred frees are not visible to this allocator.** `free_deferred`
//! hands the object to the attached reclamation domain — under the default
//! epoch backend that queues a callback on the
//! [`EpochDomain`](pbs_rcu::reclaim::EpochDomain), exactly like kernel code
//! deferring a `kfree` through RCU — so deferred objects are reclaimed
//! later, in bursts, by the domain's reclaimer threads throttled per
//! [`RcuConfig`](pbs_rcu::RcuConfig). This reproduces the pathologies of
//! paper §3: bursty freeing, extended object lifetimes, high object-cache
//! and slab churn, and OOM under sustained deferred-free load.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_alloc_api::slub::SlubCache;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//!
//! let pages = Arc::new(PageAllocator::new());
//! let rcu = Arc::new(Rcu::new());
//! let cache = SlubCache::new("example", 256, EngineConfig::new(4), pages, rcu);
//!
//! let obj = cache.allocate()?;
//! unsafe { cache.free_deferred(obj) }; // reclaimed after a grace period
//! cache.quiesce();
//! assert_eq!(cache.stats().deferred_frees, 1);
//! # Ok::<(), pbs_alloc_api::AllocError>(())
//! ```

use parking_lot::MutexGuard;

use pbs_mem::OutOfMemory;
use pbs_telemetry::EventKind;

use crate::engine::{CpuSlot, KmallocHeap, Node, SlabEngine, SlabFactory, SlabPolicy};
use crate::{ListKind, ObjPtr};

/// A SLUB-style slab cache for fixed-size objects: the shared
/// [`SlabEngine`] running the [`SlubPolicy`]. Whatever the backend, a
/// deferred object stays invisible to it until the domain delivers it back.
pub type SlubCache = SlabEngine<SlubPolicy>;

/// Creates [`SlubCache`]s sharing one page allocator and RCU domain.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::slub::SlubFactory;
/// use pbs_alloc_api::CacheFactory;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
///
/// let config = EngineConfig::new(4);
/// let f = SlubFactory::new(config, Arc::new(PageAllocator::new()), Arc::new(Rcu::new()));
/// let cache = f.create_cache("dentry", 192);
/// assert_eq!(cache.object_size(), 192);
/// assert_eq!(f.label(), "slub");
/// ```
pub type SlubFactory = SlabFactory<SlubPolicy>;

/// A general-purpose allocator front end: one [`SlubCache`] per kmalloc
/// size class.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::slub::SlubHeap;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
///
/// let config = EngineConfig::new(4);
/// let heap = SlubHeap::new(config, Arc::new(PageAllocator::new()), Arc::new(Rcu::new()));
/// let obj = heap.kmalloc(100)?; // served by kmalloc-128
/// unsafe { heap.kfree(obj, 100) };
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub type SlubHeap = KmallocHeap<SlubPolicy>;

type Engine = SlubCache;

/// The baseline's decisions, blind to deferred objects.
#[derive(Debug, Default)]
pub struct SlubPolicy;

impl crate::engine::sealed::Sealed for SlubPolicy {}

impl SlabPolicy for SlubPolicy {
    const LABEL: &'static str = "slub";

    /// SLUB picks the first partial slab, then free slabs, then grows; out
    /// of pages, a partial batch is still usable.
    fn select_slab(
        &self,
        eng: &Engine,
        node: &mut Node,
        have: bool,
    ) -> Result<Option<usize>, OutOfMemory> {
        let listed = node
            .lists
            .first(ListKind::Partial)
            .or_else(|| node.lists.first(ListKind::Free));
        match listed {
            Some(index) => Ok(Some(index)),
            None => match eng.grow(node) {
                Ok(index) => Ok(Some(index)),
                Err(_) if have => Ok(None),
                Err(e) => Err(e),
            },
        }
    }

    fn shrink_limit(&self, eng: &Engine, _: &mut Node) -> Option<usize> {
        Some(eng.policy().free_slabs_limit)
    }

    /// The baseline behaviour under test: the object is handed to the
    /// domain (an RCU callback under the epoch backend, exactly like
    /// kernel code deferring a `kfree` through RCU) and stays invisible to
    /// the allocator until background reclaim delivers it.
    fn defer(
        &self,
        eng: &Engine,
        cpu_idx: usize,
        cpu: MutexGuard<'_, CpuSlot>,
        obj: ObjPtr,
        t_ns: u64,
    ) {
        // Slot lock held: lane `cpu_idx` is ours to write. The record
        // reuses the site stamp's clock read.
        eng.counters().ring.record_at(
            cpu_idx,
            t_ns,
            EventKind::DeferredFree,
            eng.counters().id(),
            obj.addr() as u64,
            0,
        );
        drop(cpu);
        eng.defer_to_domain(obj);
    }

    /// Delivered objects re-enter a CPU object cache — in bursts, on
    /// whichever thread ran the delivery — which is what produces the
    /// baseline's object-cache and slab churn (paper §3).
    fn readmit(&self, eng: &Engine, addrs: &[usize]) {
        let (cpu_idx, mut cpu) = eng.lock_cpu();
        for &addr in addrs {
            eng.counters().ring.record(
                cpu_idx,
                EventKind::DeferredReusable,
                eng.counters().id(),
                addr as u64,
                0,
            );
            // SAFETY: the domain only returns addresses this cache
            // deferred into it, each exactly once.
            let obj = unsafe { ObjPtr::from_addr(addr) };
            eng.recycle(cpu_idx, &mut cpu, obj);
        }
    }

    /// The baseline cannot reclaim anything itself: drive the domain (get
    /// the callbacks runnable, or one scan/seal step) and cede the CPU to
    /// the reclaimers.
    fn assist(&self, eng: &Engine) {
        eng.reclaim_domain().expedite();
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::EngineConfig;
    use crate::AllocError;
    use pbs_mem::PageAllocator;
    use pbs_rcu::Rcu;

    fn cache(size: usize) -> (Arc<SlubCache>, Arc<PageAllocator>, Arc<Rcu>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(pbs_rcu::RcuConfig::eager()));
        let config = EngineConfig::new(2);
        let c = SlubCache::new("t", size, config, Arc::clone(&pages), Arc::clone(&rcu));
        (c, pages, rcu)
    }

    #[test]
    fn first_allocation_misses_then_hits() {
        let (c, _p, _r) = cache(64);
        let a = c.allocate().unwrap();
        let b = c.allocate().unwrap();
        let s = c.stats();
        assert_eq!(s.refills, 1);
        assert_eq!(s.cache_hits, 1); // second alloc served from the refill

        // SAFETY: both objects were allocated above and are freed once.
        unsafe {
            c.free(a);
            c.free(b);
        }
    }

    #[test]
    fn objects_are_writable_and_distinct() {
        let (c, _p, _r) = cache(128);
        let objs: Vec<ObjPtr> = (0..50).map(|_| c.allocate().unwrap()).collect();
        for (i, o) in objs.iter().enumerate() {
            // SAFETY: `o` is a live 128-byte object of this cache, u64-aligned inside its slab.
            unsafe { o.as_ptr().cast::<u64>().write(i as u64) };
        }
        for (i, o) in objs.iter().enumerate() {
            // SAFETY: `o` is still live and was written just above.
            assert_eq!(unsafe { o.as_ptr().cast::<u64>().read() }, i as u64);
        }
        for o in objs {
            // SAFETY: each object was allocated above and is freed once.
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn grow_and_shrink_cycle() {
        let (c, pages, _r) = cache(512);
        let per_slab = c.policy().objects_per_slab;
        let objs: Vec<ObjPtr> = (0..per_slab * 20).map(|_| c.allocate().unwrap()).collect();
        assert!(c.stats().grows >= 20);
        assert!(pages.used_bytes() > 0);
        for o in objs {
            // SAFETY: each object was allocated above and is freed once.
            unsafe { c.free(o) };
        }
        let s = c.stats();
        assert!(s.shrinks > 0, "freeing everything should shrink: {s:?}");
        // Slabs still referenced by per-CPU caches (slot-locked and
        // fast-path slots) stay partial; everything beyond those plus the
        // free-slab threshold must have shrunk.
        let cpu_cached_slabs =
            (2 * c.policy().object_cache_size).div_ceil(c.policy().objects_per_slab);
        let fast_cached_slabs = (pbs_percpu::nslots() * c.policy().object_cache_size)
            .div_ceil(c.policy().objects_per_slab);
        assert!(
            s.slabs_current
                <= c.policy().free_slabs_limit + cpu_cached_slabs + fast_cached_slabs + 1,
            "retained too many slabs: {s:?}"
        );
    }

    #[test]
    fn deferred_free_goes_through_rcu() {
        let (c, _p, rcu) = cache(256);
        let objs: Vec<ObjPtr> = (0..10).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        assert_eq!(c.stats().deferred_frees, 10);
        assert_eq!(c.deferred_outstanding(), 10);
        c.quiesce();
        assert_eq!(c.reclaim_domain().deferred_in_domain(), 0);
        assert_eq!(rcu.stats().callback_backlog, 0);
        assert_eq!(c.deferred_outstanding(), 0);
        // After quiesce the objects are reusable: allocate again without
        // growing further.
        let grows_before = c.stats().grows;
        let again: Vec<ObjPtr> = (0..10).map(|_| c.allocate().unwrap()).collect();
        assert_eq!(c.stats().grows, grows_before);
        for o in again {
            // SAFETY: each object was allocated above and is freed once.
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn injected_grow_fault_propagates_as_err() {
        use pbs_fault::{site, FaultInjector, Schedule};
        let faults = Arc::new(FaultInjector::new(1));
        faults.schedule(site::SLAB_GROW, Schedule::EveryKth(1));
        let pages = Arc::new(
            PageAllocator::builder()
                .fault_injector(Arc::clone(&faults))
                .build(),
        );
        let rcu = Arc::new(Rcu::with_config(pbs_rcu::RcuConfig::eager()));
        let c = SlubCache::new("t", 64, EngineConfig::new(1), pages, rcu);
        // A fresh cache has nothing cached, so the very first allocation
        // must reach grow, hit the blackout, and report OOM — not panic.
        assert_eq!(c.allocate(), Err(AllocError::OutOfMemory));
        assert!(faults.injected(site::SLAB_GROW) >= 1);
        assert_eq!(c.stats().live_objects, 0);
    }
}
