//! Behaviour every [`SlabEngine`](pbs_alloc_api::engine::SlabEngine)
//! policy must share, written once and instantiated for both policies
//! (and, through [`KmallocHeap`], for both heaps). Policy-specific
//! behaviour is tested beside its policy, in `pbs_alloc_api::prudence`
//! and `pbs_alloc_api::slub`.

#![deny(clippy::undocumented_unsafe_blocks)]

use std::sync::Arc;

use pbs_alloc_api::engine::{EngineConfig, KmallocHeap, SlabEngine, SlabPolicy};
use pbs_alloc_api::prudence::{PrudenceCache, PrudencePolicy};
use pbs_alloc_api::slub::{SlubCache, SlubPolicy};
use pbs_alloc_api::{AllocError, ObjPtr, ObjectAllocator, SizingPolicy, SIZE_CLASSES};
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{domain_for, EpochDomain, ReclaimBackend, ReclaimConfig, ReclamationDomain};
use pbs_rcu::{Rcu, RcuConfig};
use pbs_telemetry::EventKind;

/// What the shared test bodies need to know about a cache type beyond its
/// policy.
trait Kit {
    /// The policy the cache is a [`SlabEngine`] over.
    type Policy: SlabPolicy;
    /// Trace event marking "object deferred".
    const DEFERRED: EventKind;
    /// Trace event marking "deferred object reusable again".
    const REUSABLE: EventKind;
    /// Whether an epoch-domain defer waits in the engine's latent cache.
    const LATENT: bool;
}

impl Kit for PrudenceCache {
    type Policy = PrudencePolicy;
    const DEFERRED: EventKind = EventKind::LatentStamp;
    const REUSABLE: EventKind = EventKind::LatentMerge;
    const LATENT: bool = true;
}

impl Kit for SlubCache {
    type Policy = SlubPolicy;
    const DEFERRED: EventKind = EventKind::DeferredFree;
    const REUSABLE: EventKind = EventKind::DeferredReusable;
    const LATENT: bool = false;
}

fn eager_rcu() -> Arc<Rcu> {
    Arc::new(Rcu::with_config(RcuConfig::eager()))
}

/// An RCU whose grace-period driver is parked out of reach: no background
/// grace period can race an allocation loop and return deferred objects
/// early, so they come back only through the OOM ladder (or `quiesce`).
fn parked_driver_rcu() -> Arc<Rcu> {
    Arc::new(Rcu::with_config(RcuConfig {
        driver_interval: std::time::Duration::from_secs(3600),
        ..RcuConfig::eager()
    }))
}

type Cache<C> = Arc<SlabEngine<<C as Kit>::Policy>>;

fn cache_on<C: Kit>(
    size: usize,
    engine: EngineConfig,
    pages: &Arc<PageAllocator>,
    domain: Arc<dyn ReclamationDomain>,
) -> Cache<C> {
    SlabEngine::with_domain("t", size, engine, Arc::clone(pages), domain)
}

/// A cache over a fresh epoch domain.
fn cache<C: Kit>(size: usize, engine: EngineConfig) -> (Cache<C>, Arc<PageAllocator>, Arc<Rcu>) {
    let pages = Arc::new(PageAllocator::new());
    let rcu = eager_rcu();
    let c = SlabEngine::new("t", size, engine, Arc::clone(&pages), Arc::clone(&rcu));
    (c, pages, rcu)
}

fn alloc_n(c: &impl ObjectAllocator, n: usize) -> Vec<ObjPtr> {
    (0..n).map(|_| c.allocate().unwrap()).collect()
}

fn allocate_free_roundtrip<C: Kit>() {
    let (c, _p, _r) = cache::<C>(64, EngineConfig::new(2));
    let a = c.allocate().unwrap();
    let b = c.allocate().unwrap();
    assert_ne!(a, b);
    // SAFETY: both objects were allocated above and are freed once.
    unsafe {
        c.free(a);
        c.free(b);
    }
    let s = c.stats();
    assert_eq!(s.alloc_requests, 2);
    assert_eq!(s.frees, 2);
    assert_eq!(s.live_objects, 0);
}

fn deferred_objects_invisible_until_grace_period<C: Kit>() {
    let (c, _p, rcu) = cache::<C>(64, EngineConfig::new(1));
    let batch = SizingPolicy::for_object_size(64).object_cache_size * 2;
    let reader = rcu.register();

    let a = c.allocate().unwrap();
    let guard = reader.read_lock();
    // SAFETY: `a` was allocated above and is deferred once; only its address is compared below.
    unsafe { c.free_deferred(a) };
    assert_eq!(c.deferred_outstanding(), 1);
    std::thread::sleep(std::time::Duration::from_millis(20));
    // With the reader pinned, `a` must never be handed out again (its
    // memory could still be read).
    let objs = alloc_n(&*c, batch);
    assert!(objs.iter().all(|&o| o != a), "deferred object reused early");
    drop(guard);
    c.quiesce();
    assert_eq!(c.deferred_outstanding(), 0);
    // Now it is reusable.
    let more = alloc_n(&*c, batch);
    assert!(
        more.contains(&a),
        "deferred object should be reusable after GP"
    );
    for o in objs.into_iter().chain(more) {
        // SAFETY: every object was allocated above and is freed once.
        unsafe { c.free(o) };
    }
}

fn concurrent_alloc_free_defer_stress<C: Kit>() {
    let (c, _p, _r) = cache::<C>(64, EngineConfig::new(2));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for i in 0..5_000 {
                    let o = c.allocate().unwrap();
                    // SAFETY: `o` is a live 64-byte object this thread owns.
                    unsafe { o.as_ptr().write(0xAB) };
                    held.push(o);
                    if i % 3 == 0 {
                        if let Some(o) = held.pop() {
                            // SAFETY: `held` owns each object once; freed once.
                            unsafe { c.free(o) };
                        }
                    }
                    if held.len() > 100 {
                        for (k, o) in held.drain(..).enumerate() {
                            if k % 2 == 0 {
                                // SAFETY: `held` owned `o` alone; deferred once.
                                unsafe { c.free_deferred(o) };
                            } else {
                                // SAFETY: `held` owned `o` alone; freed once.
                                unsafe { c.free(o) };
                            }
                        }
                    }
                }
                for o in held {
                    // SAFETY: `o` is still owned by `held` and is deferred once.
                    unsafe { c.free_deferred(o) };
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    c.quiesce();
    assert_eq!(c.stats().live_objects, 0);
    assert_eq!(c.deferred_outstanding(), 0);
}

/// `quiesce` drains what was deferred before the call and returns while
/// another thread keeps deferring: a server driver quiesces while its
/// reactors still defer, so `quiesce` must not demand that nothing at
/// all is outstanding.
fn quiesce_returns_while_another_thread_defers<C: Kit>() {
    use std::sync::atomic::{AtomicBool, Ordering};
    /// Stops the deferrer on unwind too, so a failing quiesce fails the
    /// test instead of hanging it.
    struct Stop<'a>(&'a AtomicBool);
    impl Drop for Stop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let (c, _p, _r) = cache::<C>(64, EngineConfig::new(2));
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop = Stop(&stop);
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let o = c.allocate().unwrap();
                // SAFETY: `o` was allocated just above and is deferred once.
                unsafe { c.free_deferred(o) };
            }
        });
        while c.deferred_outstanding() == 0 {
            std::thread::yield_now();
        }
        for _ in 0..16 {
            c.quiesce();
        }
    });
    c.quiesce();
    assert_eq!(c.deferred_outstanding(), 0);
    assert_eq!(c.stats().live_objects, 0);
}

fn pressure_gauge_tracks_backlog<C: Kit>() {
    let (c, _p, rcu) = cache::<C>(64, EngineConfig::new(1).with_watermarks(4, 8));
    let reader = rcu.register();
    let objs = alloc_n(&*c, 16);
    // Pin a reader so nothing can drain while the backlog builds.
    let guard = reader.read_lock();
    for &o in &objs {
        // SAFETY: each object of `objs` was allocated above and deferred once, never touched again.
        unsafe { c.free_deferred(o) };
    }
    let s = c.stats();
    assert_eq!(s.pressure_level, 2, "hard watermark crossed: {s:?}");
    assert!(s.pressure_transitions >= 2, "0→1→2 expected: {s:?}");
    assert!(
        s.assisted_merges >= 1,
        "hard-level frees must assist reclaim: {s:?}"
    );
    assert!(
        c.telemetry().count_of(EventKind::PressureChange) >= 2,
        "transitions should be traced"
    );
    drop(guard);
    c.quiesce();
    let s = c.stats();
    assert_eq!(s.pressure_level, 0, "gauge returns to nominal: {s:?}");
    assert_eq!(c.deferred_outstanding(), 0);
}

fn oom_ladder_recovers_deferred_backlog<C: Kit>() {
    // The page budget fits 6 slabs and every round defers 5 slabs' worth:
    // allocation would OOM unless the ladder drains the domain / waits
    // for the grace period (line 31) and takes the objects back.
    let sizing = SizingPolicy::for_object_size(512);
    let pages = Arc::new(
        PageAllocator::builder()
            .limit_bytes(6 * sizing.slab_bytes)
            .build(),
    );
    let domain = Arc::new(EpochDomain::new(parked_driver_rcu()));
    let c = cache_on::<C>(512, EngineConfig::new(1), &pages, domain);
    for round in 0..4 {
        let objs: Vec<ObjPtr> = (0..sizing.objects_per_slab * 5)
            .map(|_| {
                c.allocate()
                    .unwrap_or_else(|e| panic!("round {round}: {e}"))
            })
            .collect();
        for o in objs {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
    }
    let s = c.stats();
    assert!(s.oom_waits > 0, "ladder never entered: {s:?}");
    assert!(
        s.oom_recoveries_total() >= 1,
        "recovered allocations should be attributed to a ladder stage: {s:?}"
    );
    assert!(
        c.telemetry().count_of(EventKind::OomDefer) >= 1,
        "the blocking rung should be traced"
    );
    c.quiesce();
}

/// Partial refill and proportional flush are the engine's sizing rules: a
/// refill asks for a whole cache less one object per latent entry (floored
/// at a quarter cache, and counted as partial), and an overflowing flush
/// keeps half a cache less the same. With the latent cache empty — every
/// SLUB slot — they are SLUB's whole cache and half.
fn refill_and_flush_sizes_follow_the_latent_cache<C: Kit>() {
    let size = SizingPolicy::for_object_size(64).object_cache_size;
    for pinned in [0, size / 4, 7 * size / 8] {
        let (c, _p, rcu) = cache::<C>(64, EngineConfig::new(1));
        // Every free reaches the slot. Stock the slabs with free objects,
        // so no refill below stops short at a grow decision, and hold two
        // caches' worth.
        c.fastpath_set_enabled(false);
        let mut held = alloc_n(&*c, 4 * size);
        for o in held.drain(2 * size..) {
            // SAFETY: the objects past the first two caches' worth, each freed once.
            unsafe { c.free(o) };
        }
        let stock: Vec<ObjPtr> = c.lock_slot(0).obj_cache.drain(..).collect();
        c.give_back(stock);
        // `pinned` defers behind a reader: Prudence stamps them into the
        // latent cache, SLUB hands them to the domain.
        let reader = rcu.register();
        let guard = reader.read_lock();
        for o in held.drain(..pinned) {
            // SAFETY: the first `pinned` held objects, each deferred once.
            unsafe { c.free_deferred(o) };
        }
        let latent = c.lock_slot(0).latent.len();
        assert_eq!(latent, if C::LATENT { pinned } else { 0 });
        // The object cache is empty and nothing can merge: a refill.
        let before = c.stats();
        held.push(c.allocate().unwrap());
        let after = c.stats();
        let want = size.saturating_sub(latent).max(size / 4);
        let refilled = c.lock_slot(0).obj_cache.len() + 1;
        assert_eq!(refilled, want, "refill, {latent} latent");
        assert_eq!(after.refills - before.refills, 1);
        let partial = after.partial_refills - before.partial_refills;
        assert_eq!(partial, u64::from(want < size));
        // Free until the cache holds one object more than a whole cache.
        for o in held.drain(..size + 2 - want) {
            // SAFETY: each object was still held and is freed once.
            unsafe { c.free(o) };
        }
        assert_eq!(c.stats().flushes - after.flushes, 1);
        let kept = c.lock_slot(0).obj_cache.len();
        let keep = (size / 2).saturating_sub(latent);
        assert_eq!(kept, keep, "flush, {latent} latent");
        drop(guard);
        for o in held {
            // SAFETY: each object was still held and is freed once.
            unsafe { c.free(o) };
        }
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0);
        assert_eq!(c.stats().live_objects, 0);
    }
}

/// OOM ladder rung 1 is one engine rung for both policies: it drains every
/// latent cache and returns every slot's object cache to the slabs, so free
/// objects parked on *another* slot rescue an allocation without waiting
/// for any grace period.
fn ladder_rung_one_collects_every_slot<C: Kit>() {
    let sizing = SizingPolicy::for_object_size(512);
    let pages = Arc::new(
        PageAllocator::builder()
            .limit_bytes(2 * sizing.slab_bytes)
            .build(),
    );
    let domain = Arc::new(EpochDomain::new(parked_driver_rcu()));
    let c = cache_on::<C>(512, EngineConfig::new(2), &pages, domain);
    // Every free reaches a slot. This thread (slot 0) takes the whole page
    // budget; nothing is deferred yet, so the last allocation fails
    // without the ladder.
    c.fastpath_set_enabled(false);
    let mut held = Vec::new();
    while let Ok(o) = c.allocate() {
        held.push(o);
    }
    assert_eq!(c.stats().oom_waits, 0);
    // One deferred object arms the ladder; its grace period cannot end.
    // SAFETY: the popped object is owned by `held` and deferred once.
    unsafe { c.free_deferred(held.pop().unwrap()) };
    // A second thread (slot 1) frees three objects into its own cache.
    let freed = held.split_off(held.len() - 3);
    let cache = &*c;
    std::thread::scope(|s| {
        s.spawn(move || {
            for o in freed {
                // SAFETY: `freed` was split off `held`: each object is freed once, here only.
                unsafe { cache.free(o) };
            }
        });
    });
    assert_eq!(c.lock_slot(1).obj_cache.len(), 3);
    held.push(c.allocate().expect("the ladder recovers"));
    let s = c.stats();
    assert_eq!((s.oom_waits, s.oom_recoveries_stage1), (1, 1), "{s:?}");
    for o in held {
        // SAFETY: each object was still held and is freed once.
        unsafe { c.free(o) };
    }
    c.quiesce();
    assert_eq!(c.deferred_outstanding(), 0);
    drop(c);
    assert_eq!(pages.used_bytes(), 0);
}

fn immediate_free_oom_propagates<C: Kit>() {
    let pages = Arc::new(PageAllocator::builder().limit_bytes(8 * 4096).build());
    let domain = Arc::new(EpochDomain::new(eager_rcu()));
    let c = cache_on::<C>(2048, EngineConfig::new(1), &pages, domain);
    let mut objs = Vec::new();
    let err = loop {
        match c.allocate() {
            Ok(o) => objs.push(o),
            Err(e) => break e,
        }
    };
    assert_eq!(err, AllocError::OutOfMemory);
    for o in objs {
        // SAFETY: each object was allocated above and is freed once.
        unsafe { c.free(o) };
    }
}

fn telemetry_traces_deferred_lifecycle<C: Kit>() {
    let (c, _p, rcu) = cache::<C>(64, EngineConfig::new(2));
    let a = c.allocate().unwrap();
    // SAFETY: `a` was allocated above and is deferred once.
    unsafe { c.free_deferred(a) };
    rcu.synchronize();
    // Drain the object cache so a policy that merges lazily has to.
    let held = alloc_n(&*c, 2 * SizingPolicy::for_object_size(64).object_cache_size);
    c.quiesce();
    let t = c.telemetry();
    assert_eq!(t.count_of(C::DEFERRED), 1, "{:?}", t.event_counts);
    assert!(t.count_of(C::REUSABLE) >= 1, "{:?}", t.event_counts);
    assert!(t.count_of(EventKind::SlabGrow) >= 1, "{:?}", t.event_counts);
    assert!(t.histogram("slot_wait_ns").is_some());
    let timed = t.histogram("defer_delay_ns").is_some_and(|h| h.count >= 1);
    assert!(timed, "defer→reusable delay samples");
    for o in held {
        // SAFETY: each object was allocated above and is freed once.
        unsafe { c.free(o) };
    }
}

fn robust_backends_bound_garbage_under_a_stalled_reader<C: Kit>() {
    for backend in [ReclaimBackend::Hp, ReclaimBackend::Hyaline] {
        let pages = Arc::new(PageAllocator::new());
        let rcu = eager_rcu();
        let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
        let c = cache_on::<C>(64, EngineConfig::new(2), &pages, Arc::clone(&domain));
        let reader = rcu.register();
        let guard = reader.read_lock();
        for o in alloc_n(&*c, 512) {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        // Give the hyaline ejector its window (aggressive: 2ms), then
        // one progress step. The reader is STILL pinned.
        std::thread::sleep(std::time::Duration::from_millis(5));
        domain.advance();
        let outstanding = c.deferred_outstanding();
        assert!(
            outstanding <= 128,
            "{backend}: stalled reader pinned {outstanding} objects"
        );
        // Epoch in the same position wedges at 512 (see
        // `deferred_objects_invisible_until_grace_period` and the chaos
        // stalled-reader scenario for the gated contrast).
        c.quiesce();
        assert_eq!(c.deferred_outstanding(), 0, "{backend}: quiesce under pin");
        drop(guard);
        drop(c);
        assert_eq!(pages.used_bytes(), 0, "{backend}: pages leaked");
    }
}

fn drop_returns_all_pages<C: Kit>() {
    let (c, pages, _r) = cache::<C>(128, EngineConfig::new(2));
    for (i, o) in alloc_n(&*c, 200).into_iter().enumerate() {
        if i % 2 == 0 {
            // SAFETY: `o` was allocated above and is freed once.
            unsafe { c.free(o) };
        } else {
            // SAFETY: `o` was allocated above and is deferred once.
            unsafe { c.free_deferred(o) };
        }
    }
    c.quiesce();
    drop(c);
    assert_eq!(pages.used_bytes(), 0, "cache leaked pages on drop");
}

fn drop_with_defers_in_flight<C: Kit>() {
    for backend in ReclaimBackend::ALL {
        let pages = Arc::new(PageAllocator::new());
        let rcu = eager_rcu();
        let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
        let c = cache_on::<C>(64, EngineConfig::new(2), &pages, Arc::clone(&domain));
        let reader = rcu.register();
        // A pinned reader keeps the defers in flight across the drop.
        let guard = reader.read_lock();
        for o in alloc_n(&*c, 200) {
            // SAFETY: each object was allocated above and deferred once, never touched again.
            unsafe { c.free_deferred(o) };
        }
        assert!(c.deferred_outstanding() > 0, "{backend}: nothing in flight");
        drop(c);
        assert_eq!(pages.used_bytes(), 0, "{backend}: drop returns every slab");
        // Whatever the domain still holds names a dead client: draining it
        // must neither panic nor deliver.
        drop(guard);
        domain.synchronize();
        assert_eq!(domain.deferred_in_domain(), 0, "{backend}: domain drained");
        assert_eq!(pages.used_bytes(), 0, "{backend}");
    }
}

fn heap<C: Kit>() -> KmallocHeap<C::Policy> {
    KmallocHeap::new(
        EngineConfig::new(2),
        Arc::new(PageAllocator::new()),
        eager_rcu(),
    )
}

fn heap_routes_to_correct_class<C: Kit>() {
    let h = heap::<C>();
    let o = h.kmalloc(100).unwrap();
    let class = h.cache_for(100).unwrap();
    assert_eq!(class.object_size(), 128);
    assert_eq!(class.stats().alloc_requests, 1);
    // SAFETY: `o` came from `kmalloc(100)` on this heap and is freed once.
    unsafe { h.kfree(o, 100) };
    assert_eq!(class.stats().frees, 1);
    assert_eq!(
        h.kmalloc(1 << 20),
        Err(AllocError::OutOfMemory),
        "oversized"
    );
    assert_eq!(h.stats().len(), SIZE_CLASSES.len());
    assert_eq!(h.caches().len(), SIZE_CLASSES.len());
}

fn heap_deferred_free_roundtrip<C: Kit>() {
    let h = heap::<C>();
    let o = h.kmalloc(512).unwrap();
    // SAFETY: `o` came from `kmalloc(512)` on this heap and is deferred once.
    unsafe { h.kfree_deferred(o, 512) };
    h.quiesce();
    let s = h.cache_for(512).unwrap().stats();
    assert_eq!(s.deferred_frees, 1);
    assert_eq!(s.live_objects, 0);
}

/// Regression: the SLUB heap used to quiesce only its first size class
/// ("one barrier covers the shared RCU domain"), leaving every other
/// class's fast-parked objects in place across a quiesce.
fn heap_quiesce_drains_every_class<C: Kit>() {
    let h = heap::<C>();
    let sizes = [64, 512];
    for size in sizes {
        let objs: Vec<ObjPtr> = (0..40).map(|_| h.kmalloc(size).unwrap()).collect();
        for (i, o) in objs.into_iter().enumerate() {
            if i % 2 == 0 {
                // SAFETY: `o` came from `kmalloc(size)` on this heap and is freed once.
                unsafe { h.kfree(o, size) }; // parks on the fast path
            } else {
                // SAFETY: `o` came from `kmalloc(size)` on this heap and is deferred once.
                unsafe { h.kfree_deferred(o, size) };
            }
        }
    }
    h.quiesce();
    for size in sizes {
        let class = h.cache_for(size).unwrap();
        let sizing = SizingPolicy::for_object_size(size);
        let s = class.stats();
        assert_eq!(class.deferred_outstanding(), 0, "kmalloc-{size}");
        assert_eq!(s.live_objects, 0, "kmalloc-{size}: {s:?}");
        if class.fastpath_enabled() {
            assert!(
                class.telemetry().count_of(EventKind::FastpathDrain) >= 1,
                "kmalloc-{size}: objects stayed parked on the fast path"
            );
        }
        // Only objects in the slot-locked caches may still pin slabs.
        let cpu_cached_slabs = (2 * sizing.object_cache_size).div_ceil(sizing.objects_per_slab);
        assert!(
            s.slabs_current <= sizing.free_slabs_limit + cpu_cached_slabs,
            "kmalloc-{size} retained slabs: {s:?}"
        );
    }
}

/// The one cache configuration keeps its pressure levels ordered.
#[test]
fn engine_config_watermarks_stay_ordered() {
    let c = EngineConfig::new(2).with_watermarks(100, 10);
    assert_eq!(c.soft_watermark, 100);
    assert_eq!(c.hard_watermark, 100, "hard clamped up to soft");
    let c = EngineConfig::new(2).with_watermarks(0, 0);
    assert_eq!(c.soft_watermark, 1, "soft clamped to at least 1");
    let c = EngineConfig::default();
    assert!(c.soft_watermark <= c.hard_watermark);
}

#[test]
#[should_panic(expected = "at least one")]
fn engine_config_rejects_zero_cpus() {
    EngineConfig::new(0);
}

macro_rules! for_each_policy {
    ($($test:ident),* $(,)?) => {
        mod prudence_policy {
            $(#[test] fn $test() { super::$test::<super::PrudenceCache>() })*
        }
        mod slub_policy {
            $(#[test] fn $test() { super::$test::<super::SlubCache>() })*
        }
    };
}

for_each_policy!(
    allocate_free_roundtrip,
    deferred_objects_invisible_until_grace_period,
    concurrent_alloc_free_defer_stress,
    quiesce_returns_while_another_thread_defers,
    pressure_gauge_tracks_backlog,
    oom_ladder_recovers_deferred_backlog,
    refill_and_flush_sizes_follow_the_latent_cache,
    ladder_rung_one_collects_every_slot,
    immediate_free_oom_propagates,
    telemetry_traces_deferred_lifecycle,
    robust_backends_bound_garbage_under_a_stalled_reader,
    drop_returns_all_pages,
    drop_with_defers_in_flight,
    heap_routes_to_correct_class,
    heap_deferred_free_roundtrip,
    heap_quiesce_drains_every_class,
);
