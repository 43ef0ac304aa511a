//! The baseline policy: plain SLUB decisions over the shared slab engine.

use parking_lot::MutexGuard;

use pbs_alloc_api::engine::{CpuSlot, Node, SlabEngine, SlabPolicy};
use pbs_alloc_api::{ListKind, ObjPtr};
use pbs_mem::OutOfMemory;
use pbs_telemetry::EventKind;

/// A SLUB-style slab cache for fixed-size objects: the shared
/// [`SlabEngine`] running the [`SlubPolicy`]. Whatever the backend, a
/// deferred object is handed to the domain and stays invisible to the
/// allocator until the domain delivers it back.
///
/// See the [crate-level documentation](crate) for the role this type plays
/// in the reproduction and an example.
pub type SlubCache = SlabEngine<SlubPolicy>;

type Engine = SlubCache;

/// The baseline's decisions: nothing about deferred objects is visible to
/// the allocator, so the engine's latent structures stay empty and every
/// hint-driven rule falls back to the fixed SLUB one.
#[derive(Debug, Default)]
pub struct SlubPolicy;

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
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::AllocError;
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
            unsafe { o.as_ptr().cast::<u64>().write(i as u64) };
        }
        for (i, o) in objs.iter().enumerate() {
            assert_eq!(unsafe { o.as_ptr().cast::<u64>().read() }, i as u64);
        }
        for o in objs {
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
