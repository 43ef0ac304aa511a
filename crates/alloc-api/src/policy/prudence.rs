//! Prudence (ASPLOS '16): the paper's allocator, as a policy over the
//! shared slab engine.
//!
//! Prudence is a slab allocator **tightly integrated with
//! procrastination-based synchronization** (RCU). Where the baseline
//! allocator ([`slub`](crate::slub)) reclaims deferred objects through
//! opaque RCU callbacks, Prudence makes deferred objects *visible to the
//! allocator*:
//!
//! * [`free_deferred`](crate::ObjectAllocator::free_deferred) is a
//!   turnkey replacement for
//!   `call_rcu(kfree)` (paper Listing 2). Deferred objects are stamped with
//!   the current [`GpState`] and parked in a per-CPU
//!   **latent cache** (bounded by the object-cache size) or, past that
//!   bound, in the per-slab **latent slab**.
//! * As soon as the grace period completes, latent objects are merged into
//!   the object cache / slab free lists and are immediately reusable —
//!   extended object lifetimes (paper §3.2) are eliminated.
//! * Hints about the future drive the §4.2 optimizations: **partial
//!   refill**, **proportional flush**, **slab pre-movement**,
//!   **deferred-aware slab selection** (Figure 5), and **OOM deferral**.
//!   The paper's idle-time latent-cache pre-flush is not reproduced: a
//!   full latent cache moves its older half to latent slabs in one batch,
//!   and every node-lock trip of the free/defer route settles the
//!   grace-period-complete latent slabs first (DESIGN.md §4c).
//!
//! The latent structures, every motion on them, the refill/flush sizing
//! that reads them and the OOM ladder belong to the shared [`SlabEngine`].
//! This module is the [`PrudencePolicy`]: when deferred objects enter the
//! latent structures, slab selection, and the shrink threshold.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_alloc_api::prudence::PrudenceCache;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//!
//! let pages = Arc::new(PageAllocator::new());
//! let rcu = Arc::new(Rcu::new());
//! let cache = PrudenceCache::new("example", 256, EngineConfig::new(4), pages, rcu);
//!
//! let obj = cache.allocate()?;
//! unsafe { cache.free_deferred(obj) }; // visible to the allocator at once
//! cache.quiesce();
//! assert_eq!(cache.stats().deferred_frees, 1);
//! # Ok::<(), pbs_alloc_api::AllocError>(())
//! ```

use parking_lot::MutexGuard;

use pbs_mem::OutOfMemory;
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::GpState;
use pbs_telemetry::EventKind;

use crate::engine::{CpuSlot, KmallocHeap, LatentEntry, Node, SlabEngine, SlabFactory, SlabPolicy};
use crate::{ListKind, ObjPtr};

/// A Prudence slab cache for fixed-size objects: the shared
/// [`SlabEngine`] running the [`PrudencePolicy`]. It starts no thread, so
/// dropping the last handle returns every slab to the page allocator
/// deterministically.
pub type PrudenceCache = SlabEngine<PrudencePolicy>;

/// Creates [`PrudenceCache`]s sharing one page allocator, RCU domain and
/// configuration.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::prudence::PrudenceFactory;
/// use pbs_alloc_api::CacheFactory;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
///
/// let f = PrudenceFactory::new(
///     EngineConfig::new(4),
///     Arc::new(PageAllocator::new()),
///     Arc::new(Rcu::new()),
/// );
/// let cache = f.create_cache("dentry", 192);
/// assert_eq!(cache.object_size(), 192);
/// assert_eq!(f.label(), "prudence");
/// ```
pub type PrudenceFactory = SlabFactory<PrudencePolicy>;

/// A general-purpose Prudence front end: one [`PrudenceCache`] per kmalloc
/// size class.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::prudence::PrudenceHeap;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
///
/// let heap = PrudenceHeap::new(
///     EngineConfig::new(4),
///     Arc::new(PageAllocator::new()),
///     Arc::new(Rcu::new()),
/// );
/// let obj = heap.kmalloc(100)?;
/// unsafe { heap.kfree_deferred(obj, 100) }; // paper Listing 2
/// heap.quiesce();
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub type PrudenceHeap = KmallocHeap<PrudencePolicy>;

type Engine = PrudenceCache;

/// How many partial slabs with a free object refill selection compares
/// (the paper's latency/fragmentation trade-off, §5.4).
const SLAB_SCAN_WINDOW: usize = 10;

/// The paper's delta over a SLUB-shaped allocator (see the [module
/// documentation](self)). The latent machinery is in charge when the cache
/// is attached to the epoch backend; under a robust backend (`hp`/`hyaline`)
/// deferred objects enter the domain, which bounds the garbage one stalled
/// reader can pin, and the latent structures stay empty.
#[derive(Debug, Default)]
pub struct PrudencePolicy;

impl PrudencePolicy {
    /// Slab selection for refill (Algorithm lines 17-21 plus the Figure 5
    /// fragmentation optimization). Considers the first
    /// [`SLAB_SCAN_WINDOW`] partial slabs that have a free object. Reclaims
    /// nothing itself: the caller's pending-list sweep already merged what
    /// is complete, and a slab emptied of deferred objects behind the
    /// list's back would leave a stale entry that blocks the sweep.
    fn select(&self, node: &Node, allow_deferred_heavy: bool) -> Option<usize> {
        // Partial list first: the first `SLAB_SCAN_WINDOW` slabs that have
        // a free object. A pre-moved slab (full, its deferred objects still
        // inside their grace period) has nothing to give yet and does not
        // use up the window — a window's worth at the head of the list
        // would hide every other partial slab and turn refills into grows.
        let partial = node
            .lists
            .list(ListKind::Partial)
            .iter()
            .copied()
            .filter(|&index| node.slab(index).raw.free_count() > 0)
            .take(SLAB_SCAN_WINDOW);
        let mut best: Option<(usize, (usize, usize))> = None;
        for index in partial {
            let slab = node.slab(index);
            let free = slab.raw.free_count();
            let allocated = slab.raw.allocated_count();
            let deferred = slab.deferred.len();
            // Skip slabs whose allocated objects are mostly deferred: the
            // whole slab is likely to become free (returnable) soon.
            if !allow_deferred_heavy && allocated > 0 && deferred * 4 >= allocated * 3 {
                continue;
            }
            // Minimize total fragmentation: prefer slabs with no deferred
            // objects, then the fullest candidate (best-fit keeps sparse
            // slabs draining toward free).
            let key = (deferred, free);
            if best.is_none_or(|(_, bk)| key < bk) {
                best = Some((index, key));
            }
        }
        if let Some((index, _)) = best {
            return Some(index);
        }
        // Free list next (lines 20-21); prefer slabs without pending
        // deferred objects — slabs that are entirely "about to be free"
        // should be left alone so their pages can be returned.
        let mut fallback = None;
        for &index in node.lists.list(ListKind::Free) {
            let slab = node.slab(index);
            if slab.raw.free_count() == 0 {
                continue;
            }
            if slab.deferred.is_empty() {
                return Some(index);
            }
            if allow_deferred_heavy && fallback.is_none() {
                fallback = Some(index);
            }
        }
        fallback
    }

    /// Lines 39-51: admit `obj` into the latent cache or move it (and any
    /// overflow) to its latent slab. Consumes the guard so every early
    /// return drops the slot lock.
    fn stamp_latent(
        &self,
        eng: &Engine,
        cpu_idx: usize,
        mut cpu: MutexGuard<'_, CpuSlot>,
        obj: ObjPtr,
        gp: GpState,
    ) {
        let threshold = eng.policy().object_cache_size;
        if cpu.latent.len() < threshold {
            // Fast path (lines 39-40). Lines 41-43 (schedule an idle-time
            // pre-flush) are not reproduced: see DESIGN.md §4c.
            cpu.latent.push_back((obj, gp));
            return;
        }
        // Slow path (lines 45-51): make room, retry, else latent slab.
        // Flushing the object cache only helps by making room for the
        // merge below, so skip both when the oldest latent stamp is still
        // inside its grace period — nothing could merge, and the flush
        // would just ping-pong freshly refilled objects back through the
        // node lock (and on to slab grow/shrink churn).
        let mergeable = cpu
            .latent
            .front()
            .is_some_and(|&(_, gp)| gp.is_completed_at(eng.rcu().current_epoch()));
        if mergeable {
            eng.flush_obj_cache(cpu_idx, &mut cpu);
            eng.merge_latent(cpu_idx, &mut cpu);
        }
        if cpu.latent.len() < threshold {
            cpu.latent.push_back((obj, gp));
        } else {
            // Move the older half of the latent cache to its latent slabs
            // in one node-lock acquisition, then admit the new object.
            // Per-object eviction would serialize sustained defer streams
            // on the node lock; batching keeps the amortized cost O(1)
            // while preserving the lines 49-51 semantics.
            let n = (threshold / 2 + 1).min(threshold);
            // Draining from the front keeps stamps non-decreasing, the
            // order latent slabs rely on.
            let moved: Vec<LatentEntry> = cpu.latent.drain(..n).collect();
            cpu.latent.push_back((obj, gp));
            eng.counters().ring.record(
                cpu_idx,
                EventKind::LatentFlush,
                eng.counters().id(),
                moved.len() as u64,
                cpu.latent.len() as u64,
            );
            drop(cpu);
            eng.defer_to_slabs(&moved);
        }
    }
}

impl crate::engine::sealed::Sealed for PrudencePolicy {}

impl SlabPolicy for PrudencePolicy {
    const LABEL: &'static str = "prudence";

    fn select_slab(
        &self,
        eng: &Engine,
        node: &mut Node,
        have: bool,
    ) -> Result<Option<usize>, OutOfMemory> {
        // Merge grace-period-complete latent-slab objects back into their
        // slabs first (§4.1), so refill reuses them instead of growing.
        eng.settle_pending(node);
        if let Some(index) = self.select(node, false) {
            return Ok(Some(index));
        }
        // Growing is for satisfying the demanded object, not for topping
        // up the batch: once the cache holds anything, stop rather than
        // grow (otherwise an exactly-full heap gains a slab on every
        // boundary refill).
        if have {
            return Ok(None);
        }
        match eng.grow(node) {
            Ok(index) => Ok(Some(index)),
            // Last resort before failing: slabs we skipped because most of
            // their objects are deferred ("unless it needs to grow the
            // slab cache").
            Err(e) => self.select(node, true).map(Some).ok_or(e),
        }
    }

    /// The threshold "acts with caution by considering the number of
    /// deferred objects waiting for reclamation" (§3.1): objects that will
    /// be reusable after the grace period are about to be demanded again,
    /// so their slabs are kept rather than churned through the page
    /// allocator. When the deferred backlog drains, the threshold falls
    /// back to the baseline heuristic and memory is returned.
    fn shrink_limit(&self, eng: &Engine, node: &mut Node) -> Option<usize> {
        let pending_slabs = eng
            .deferred_outstanding()
            .div_ceil(eng.policy().objects_per_slab);
        // Proportional slack (an emptiness threshold in the Hoard spirit):
        // under a sustained defer/alloc cycle the free list legitimately
        // oscillates by a grace period's worth of slabs, so keep a
        // fraction of the cache as slack instead of churning those slabs
        // through the page allocator. Repeated shrinks still converge to
        // `free_slabs_limit` once the cache goes idle.
        let total_slabs = node.slabs.len() - node.free_slots.len();
        let limit = eng.policy().free_slabs_limit.max(total_slabs / 2) + pending_slabs;
        if node.lists.len(ListKind::Free) <= limit {
            node.shrink_excess_since = None;
            return None;
        }
        // Temporal hysteresis: a reclamation burst can briefly push the
        // free list over the limit even though the very next grace window
        // of allocations will re-demand those slabs. Only release slabs
        // once the excess has persisted for a full grace period — the same
        // prudence argument (§3.1) applied to pages instead of objects. An
        // idle cache still converges: quiesce advances epochs until the
        // stamp completes.
        match node.shrink_excess_since {
            None => {
                node.shrink_excess_since = Some(eng.rcu().gp_state());
                None
            }
            Some(since) if !since.is_completed_at(eng.rcu().current_epoch()) => None,
            Some(_) => {
                node.shrink_excess_since = None;
                Some(limit)
            }
        }
    }

    /// The one branch on the backend: latent stamping (lines 35-51) under
    /// epoch, the domain otherwise.
    fn defer(
        &self,
        eng: &Engine,
        cpu_idx: usize,
        cpu: MutexGuard<'_, CpuSlot>,
        obj: ObjPtr,
        t_ns: u64,
    ) {
        if eng.reclaim_backend() != ReclaimBackend::Epoch {
            drop(cpu);
            return eng.defer_to_domain(obj);
        }
        let gp = eng.rcu().gp_state(); // line 35

        // Slot lock held: lane `cpu_idx` is ours to write. The record
        // reuses the site stamp's clock read.
        eng.counters().ring.record_at(
            cpu_idx,
            t_ns,
            EventKind::LatentStamp,
            eng.counters().id(),
            gp.raw_epoch(),
            cpu.latent.len() as u64,
        );
        self.stamp_latent(eng, cpu_idx, cpu, obj, gp);
    }

    /// The backend proved no captured reader can still hold these objects,
    /// so they go straight back to their slabs (the same motion as an
    /// object-cache flush).
    fn readmit(&self, eng: &Engine, addrs: &[usize]) {
        // SAFETY: a domain only returns addresses this cache deferred
        // into it, each exactly once.
        eng.give_back(addrs.iter().map(|&addr| unsafe { ObjPtr::from_addr(addr) }));
    }

    /// Merges this slot's grace-period-complete latent objects and sweeps
    /// the node's pending list — or, when the domain holds the backlog,
    /// takes one bounded progress step (scan / seal + release).
    fn assist(&self, eng: &Engine) {
        if eng.reclaim_backend() != ReclaimBackend::Epoch {
            eng.reclaim_domain().advance();
            return;
        }
        let (cpu_idx, mut cpu) = eng.lock_cpu();
        eng.merge_latent(cpu_idx, &mut cpu);
        drop(cpu);
        eng.settle_pending(&mut eng.lock_node());
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::engine::EngineConfig;
    use crate::slab_layout::resolve_slab_index;
    use pbs_fault::{site, FaultInjector, Schedule};
    use pbs_mem::PageAllocator;
    use pbs_rcu::{Rcu, RcuConfig};

    /// One slot makes the slot a defer lands in deterministic.
    fn cache(size: usize, ncpus: usize) -> (Arc<PrudenceCache>, Arc<PageAllocator>, Arc<Rcu>) {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let config = EngineConfig::new(ncpus);
        let c = PrudenceCache::new("t", size, config, Arc::clone(&pages), Arc::clone(&rcu));
        (c, pages, rcu)
    }

    #[test]
    fn deferred_object_reused_after_grace_period_without_refill() {
        let (c, _p, rcu) = cache(512, 2);
        let a = c.allocate().unwrap();
        // SAFETY: `a` was allocated above and is deferred once; only its address is compared below.
        unsafe { c.free_deferred(a) };
        rcu.synchronize();
        // Drain the object cache; once it is empty the latent merge (not a
        // refill) must hand `a` back.
        let mut held = Vec::new();
        let mut found = false;
        for _ in 0..2 * c.policy().object_cache_size {
            let o = c.allocate().unwrap();
            held.push(o);
            if o == a {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "deferred object should come back via the latent merge"
        );
        assert!(c.stats().latent_hits >= 1, "stats: {:?}", c.stats());
        for o in held {
            // SAFETY: every held object was allocated above and is freed once.
            unsafe { c.free(o) };
        }
    }

    #[test]
    fn latent_cache_overflows_to_latent_slab() {
        let (c, _p, rcu) = cache(64, 1);
        let reader = rcu.register();
        let guard = reader.read_lock(); // hold the grace period open
        let n = c.policy().object_cache_size * 3;
        let objs: Vec<ObjPtr> = (0..n).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        assert_eq!(c.deferred_outstanding(), n);
        drop(guard);
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
        assert_eq!(c.stats().live_objects, 0);
    }

    #[test]
    fn quiesce_makes_everything_reusable() {
        let (c, pages, _r) = cache(256, 2);
        let objs: Vec<ObjPtr> = (0..500).map(|_| c.allocate().unwrap()).collect();
        for o in objs {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        c.quiesce();
        let before = c.stats();
        let again: Vec<ObjPtr> = (0..500).map(|_| c.allocate().unwrap()).collect();
        let after = c.stats();
        // Reclaimed objects are reusable: regrowth is allowed only for
        // slabs that quiesce's shrink legitimately returned to the page
        // allocator, plus the slack of objects parked in *other* CPU
        // slots' object caches — at exact heap capacity a slot whose own
        // cache ran dry cannot steal them and must grow instead.
        let parked_slack =
            (2 * c.policy().object_cache_size).div_ceil(c.policy().objects_per_slab) as u64;
        assert!(
            after.grows - before.grows <= after.shrinks + parked_slack,
            "grew more than it shrank: before={before:?} after={after:?}"
        );
        for o in again {
            // SAFETY: each object was allocated above and is freed once.
            unsafe { c.free(o) };
        }
        drop(c);
        assert_eq!(pages.used_bytes(), 0);
    }

    #[test]
    fn stats_track_partial_refills() {
        let (c, _p, rcu) = cache(64, 2);
        let size = c.policy().object_cache_size;
        // Put some deferred objects in the latent cache, then force a
        // refill: it should be partial.
        let objs: Vec<ObjPtr> = (0..size * 2).map(|_| c.allocate().unwrap()).collect();
        let reader = rcu.register();
        let guard = reader.read_lock();
        for &o in objs.iter().take(size / 2) {
            // SAFETY: the first `size / 2` objects, allocated above and deferred
            // once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        // Exhaust the object cache to force a refill while latent is
        // non-empty and unmergeable (reader pinned).
        let mut extra = Vec::new();
        for _ in 0..size * 2 {
            extra.push(c.allocate().unwrap());
        }
        assert!(c.stats().partial_refills > 0, "stats: {:?}", c.stats());
        drop(guard);
        for o in objs.into_iter().skip(size / 2).chain(extra) {
            // SAFETY: the objects not deferred above, each freed once.
            unsafe { c.free(o) };
        }
        c.quiesce();
    }

    #[test]
    fn overflow_batch_moves_latent_to_slabs() {
        let (c, _p, rcu) = cache(64, 1);
        let reader = rcu.register();
        let guard = reader.read_lock();
        let size = c.policy().object_cache_size;
        // With the grace period held open nothing can merge, so defer
        // number `size + 1` finds the latent cache full and moves its
        // older half (lines 45-51) to the latent slabs in one batch.
        let objs: Vec<ObjPtr> = (0..size + 1).map(|_| c.allocate().unwrap()).collect();
        for &o in &objs {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        assert!(c.stats().pre_movements > 0, "stats: {:?}", c.stats());
        assert_eq!(c.lock_slot(0).latent.len(), size - size / 2);
        assert_eq!(c.deferred_outstanding(), size + 1);
        drop(guard);
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
    }

    #[test]
    fn defer_only_phase_settles_latent_slabs_without_a_refill() {
        let (c, pages, rcu) = cache(64, 1);
        let size = c.policy().object_cache_size;
        let objs: Vec<ObjPtr> = (0..5 * size + 1).map(|_| c.allocate().unwrap()).collect();
        let (early, late) = objs.split_at(4 * size);
        let reader = rcu.register();
        let guard = reader.read_lock();
        for &o in early {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        assert_eq!(c.deferred_outstanding(), 4 * size);
        drop(guard);
        rcu.synchronize();
        // No `allocate` from here on: only the node-lock trips of the
        // defer route itself can settle what the first phase parked in
        // latent slabs.
        for &o in late {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        assert!(
            c.deferred_outstanding() <= 2 * size + 1,
            "{} deferred objects outstanding past their grace period (cache size {size})",
            c.deferred_outstanding()
        );
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
        drop(c);
        assert_eq!(pages.used_bytes(), 0);
    }

    /// Figure 5: a refill skips a partial slab whose allocated objects are
    /// mostly deferred — it is about to be free — for one with none, and
    /// takes from it only when growing fails.
    #[test]
    fn refill_prefers_deferred_free_slab_until_grow_fails() {
        let faults = Arc::new(FaultInjector::new(5));
        let pages = PageAllocator::builder().fault_injector(Arc::clone(&faults));
        let pages = Arc::new(pages.build());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let one_slot = EngineConfig::new(1);
        let c = PrudenceCache::new("f5", 512, one_slot, Arc::clone(&pages), rcu);
        c.fastpath_set_enabled(false); // every free reaches the slot
        let (per_slab, size) = (c.policy().objects_per_slab, c.policy().object_cache_size);
        // A refill of an empty slot grows one slab and takes all of it.
        let objs: Vec<ObjPtr> = (0..4 * per_slab).map(|_| c.allocate().unwrap()).collect();
        let (heavy, clean) = (&objs[..per_slab], &objs[per_slab..2 * per_slab]);
        let fillers = &objs[2 * per_slab..];
        let reader = c.rcu().register();
        // No stamp completes from here on. Ten of the heavy slab's objects
        // first: the defer that finds the latent cache full parks its older
        // half in the latent slabs.
        let guard = reader.read_lock();
        let parked = 10;
        for &o in heavy[..parked].iter().chain(&fillers[..size + 1 - parked]) {
            // SAFETY: allocated above, deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        // Three free objects in each, flushed home: the proportional flush
        // keeps nothing while the latent cache holds half a cache.
        for &o in heavy[parked..parked + 3].iter().chain(&clean[..3]) {
            // SAFETY: allocated above, freed once.
            unsafe { c.free(o) };
        }
        c.flush_obj_cache(0, &mut c.lock_slot(0));
        // SAFETY: objects of this cache's live slabs; callers hold the
        // node lock.
        let index = |o| unsafe { resolve_slab_index(o, c.policy().slab_bytes) };
        let state = |o| {
            let node = c.lock_node();
            let slab = node.slab(index(o));
            (slab.raw.free_count(), slab.deferred.len())
        };
        // 10 of the 12 allocated deferred (≥ 3/4) beside none.
        assert_eq!((state(heavy[0]), state(clean[0])), ((3, parked), (3, 0)));
        {
            // Listed first: a first-fit pick would take the heavy slab.
            let node = c.lock_node();
            let partial = node.lists.list(ListKind::Partial);
            let at = |o| partial.iter().position(|&i| i == index(o)).unwrap();
            assert!(at(heavy[0]) < at(clean[0]), "{partial:?}");
        }
        // The refill takes the clean slab's three objects and stops.
        let mut held: Vec<ObjPtr> = (0..3).map(|_| c.allocate().unwrap()).collect();
        assert_eq!((state(heavy[0]).0, state(clean[0]).0), (3, 0));
        // Nothing clean left: the next refill grows instead.
        let grows = c.stats().grows;
        held.extend((0..per_slab).map(|_| c.allocate().unwrap()));
        assert_eq!((c.stats().grows, state(heavy[0]).0), (grows + 1, 3));
        // Out of pages, the heavy slab is the last resort.
        faults.schedule(site::SLAB_GROW, Schedule::EveryKth(1));
        held.push(c.allocate().unwrap());
        assert_eq!(state(heavy[0]).0, 0);
        drop(guard);
        let rest = heavy[parked + 3..].iter().chain(&clean[3..]);
        for &o in held.iter().chain(rest).chain(&fillers[size + 1 - parked..]) {
            // SAFETY: every object still held, freed once.
            unsafe { c.free(o) };
        }
        c.quiesce();
        assert_eq!(c.stats().live_objects, 0);
        drop(c);
        assert_eq!(pages.used_bytes(), 0);
    }

    #[test]
    fn epoch_domain_cache_matches_plain_construction() {
        // `new` and `with_domain(EpochDomain)` are the same cache: the
        // latent machinery stays in charge and quiesce drains through it.
        let (c, _p, rcu) = cache(64, 2);
        assert_eq!(c.reclaim_domain().backend(), ReclaimBackend::Epoch);
        let a = c.allocate().unwrap();
        // SAFETY: `a` was allocated above and deferred once, never touched again.
        unsafe { c.free_deferred(a) };
        assert_eq!(c.deferred_outstanding(), 1);
        assert_eq!(
            c.reclaim_domain().deferred_in_domain(),
            0,
            "epoch defers park in the latent cache, not the domain"
        );
        rcu.synchronize();
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
    }
}
