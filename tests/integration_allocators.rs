//! Cross-crate integration tests: allocators + RCU + data structures +
//! simulated subsystems working together through the public API.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::{AllocError, CacheFactory, CacheInventory, ObjPtr, ObjectAllocator};
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::{PrudenceCache, PrudenceFactory};
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::simfs::SimFs;
use prudence_repro::slub::{SlubCache, SlubFactory};
use prudence_repro::structs::{RcuHashMap, RcuList};

fn prudence_setup(ncpus: usize) -> (Arc<PageAllocator>, Arc<Rcu>, Arc<PrudenceCache>) {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = PrudenceCache::new(
        "it",
        64,
        EngineConfig::new(ncpus),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    (pages, rcu, cache)
}

#[test]
fn list_stress_across_both_allocators_returns_all_memory() {
    for which in ["slub", "prudence"] {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache: Arc<dyn ObjectAllocator> = match which {
            "slub" => SlubCache::new(
                "it",
                64,
                EngineConfig::new(4),
                Arc::clone(&pages),
                Arc::clone(&rcu),
            ),
            _ => PrudenceCache::new(
                "it",
                64,
                EngineConfig::new(4),
                Arc::clone(&pages),
                Arc::clone(&rcu),
            ),
        };
        {
            let list: Arc<RcuList<u64>> = Arc::new(RcuList::new(Arc::clone(&cache)));
            for i in 0..64 {
                list.insert(i, i).unwrap();
            }
            let stop = Arc::new(AtomicBool::new(false));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let list = Arc::clone(&list);
                    let rcu = Arc::clone(&rcu);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let t = rcu.register();
                        while !stop.load(Ordering::Relaxed) {
                            let g = t.read_lock();
                            let _ = list.lookup(&g, 7);
                        }
                    });
                }
                for round in 0..5_000u64 {
                    list.update(round % 64, round).unwrap();
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
        cache.quiesce();
        assert_eq!(cache.stats().live_objects, 0, "{which}: leaked objects");
        drop(cache);
        assert_eq!(pages.used_bytes(), 0, "{which}: leaked pages");
    }
}

#[test]
fn baseline_backlog_grows_while_reader_pinned_prudence_stays_visible() {
    // Endurance in miniature: with a reader pinned, the baseline's
    // deferred objects sit in the RCU callback backlog (invisible to the
    // allocator), while Prudence tracks them itself.
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::linux_like()));
    let slub = SlubCache::new(
        "base",
        128,
        EngineConfig::new(1),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    let prudence = PrudenceCache::new(
        "pru",
        128,
        EngineConfig::new(1),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    let reader = rcu.register();
    let guard = reader.read_lock();
    for _ in 0..500 {
        let a = slub.allocate().unwrap();
        let b = prudence.allocate().unwrap();
        unsafe {
            slub.free_deferred(a);
            prudence.free_deferred(b);
        }
    }
    assert!(rcu.stats().callback_backlog >= 500, "baseline objects stuck in callbacks");
    assert_eq!(prudence.deferred_outstanding(), 500, "prudence sees its deferred objects");
    drop(guard);
    slub.quiesce();
    prudence.quiesce();
    assert_eq!(rcu.stats().callback_backlog, 0);
    assert_eq!(prudence.deferred_outstanding(), 0);
}

#[test]
fn oom_deferral_survives_where_memory_is_all_deferred() {
    // Everything allocated is deferred; a fixed budget forces the OOM
    // path. Prudence must wait for grace periods and keep serving.
    let pages = Arc::new(PageAllocator::builder().limit_bytes(1 << 20).build());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = PrudenceCache::new(
        "oom",
        512,
        EngineConfig::new(1),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );
    for _ in 0..20_000 {
        let o = cache.allocate().expect("allocation with OOM deferral");
        unsafe { cache.free_deferred(o) };
    }
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}

#[test]
fn alloc_error_when_truly_out_of_memory() {
    let pages = Arc::new(PageAllocator::builder().limit_bytes(64 << 10).build());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = PrudenceCache::new("oom2", 1024, EngineConfig::new(1), pages, rcu);
    let mut held: Vec<ObjPtr> = Vec::new();
    let err = loop {
        match cache.allocate() {
            Ok(o) => held.push(o),
            Err(e) => break e,
        }
    };
    assert_eq!(err, AllocError::OutOfMemory);
    assert!(!held.is_empty(), "some allocations must succeed first");
    for o in held {
        unsafe { cache.free(o) };
    }
}

#[test]
fn filesystem_and_hashmap_share_an_rcu_domain() {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let factory = CacheInventory::new(PrudenceFactory::new(
        EngineConfig::new(2),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    ));
    let fs = SimFs::new(&factory);
    let index: RcuHashMap<u64, u64> =
        RcuHashMap::new(factory.create_cache("index", 64), 64);
    let t = rcu.register();
    for i in 0..100 {
        let ino = fs.create(1, i).unwrap();
        index.insert(i, ino.0).unwrap();
    }
    // One guard protects traversals of both structures (same domain).
    let g = t.read_lock();
    for i in 0..100 {
        let ino = fs.lookup(&g, 1, i).expect("file exists");
        assert_eq!(index.get(&g, &i), Some(ino.0));
    }
    drop(g);
    for i in 0..100 {
        fs.unlink(1, i).unwrap();
        index.remove(&i);
    }
    factory.quiesce();
    index.len(); // map still alive here
    drop(index);
    drop(fs);
    factory.create_cache("post", 64).quiesce();
}

#[test]
fn slub_and_prudence_agree_on_workload_accounting() {
    // Identical deterministic workload on both allocators: the *user
    // visible* accounting (allocs, frees, deferred frees, live objects)
    // must agree exactly, whatever the internal reclamation strategy.
    let mut results = Vec::new();
    for which in ["slub", "prudence"] {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let factory: Box<dyn CacheFactory> = match which {
            "slub" => Box::new(SlubFactory::new(
                EngineConfig::new(2),
                pages,
                Arc::clone(&rcu),
            )),
            _ => Box::new(PrudenceFactory::new(
                EngineConfig::new(2),
                pages,
                Arc::clone(&rcu),
            )),
        };
        let cache = factory.create_cache("parity", 96);
        let mut held = Vec::new();
        for i in 0..5_000u64 {
            held.push(cache.allocate().unwrap());
            if i % 3 == 0 {
                let o = held.swap_remove((i as usize * 7) % held.len());
                unsafe { cache.free(o) };
            } else if i % 3 == 1 {
                let o = held.swap_remove((i as usize * 5) % held.len());
                unsafe { cache.free_deferred(o) };
            }
        }
        for o in held {
            unsafe { cache.free(o) };
        }
        cache.quiesce();
        let s = cache.stats();
        results.push((s.alloc_requests, s.frees, s.deferred_frees, s.live_objects));
    }
    assert_eq!(results[0], results[1], "user-visible accounting must match");
}

#[test]
fn readers_never_observe_reclaimed_memory_under_churn() {
    // Torn-read detector across the whole stack: values are always
    // written as [x, x]; any reader observing [a, b] with a != b saw
    // freed/reused memory.
    let (_pages, rcu, cache) = prudence_setup(4);
    let map: Arc<RcuHashMap<u64, [u64; 2]>> = Arc::new(RcuHashMap::new(cache, 128));
    for k in 0..128 {
        map.insert(k, [0, 0]).unwrap();
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..2 {
            let map = Arc::clone(&map);
            let rcu = Arc::clone(&rcu);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let t = rcu.register();
                let mut k = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = t.read_lock();
                    if let Some([a, b]) = map.get(&g, &(k % 128)) {
                        assert_eq!(a, b, "reader saw torn/reclaimed value");
                    }
                    drop(g);
                    k += 1;
                }
            });
        }
        for i in 0..30_000u64 {
            map.insert(i % 128, [i, i]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn quiesce_is_idempotent_and_reentrant() {
    let (_pages, _rcu, cache) = prudence_setup(2);
    let objs: Vec<ObjPtr> = (0..100).map(|_| cache.allocate().unwrap()).collect();
    for o in objs {
        unsafe { cache.free_deferred(o) };
    }
    cache.quiesce();
    cache.quiesce();
    cache.quiesce();
    assert_eq!(cache.deferred_outstanding(), 0);
}

#[test]
fn long_running_reader_delays_but_does_not_block_forever() {
    let (_pages, rcu, cache) = prudence_setup(1);
    let done = Arc::new(AtomicBool::new(false));
    let rcu2 = Arc::clone(&rcu);
    let done2 = Arc::clone(&done);
    let reader = std::thread::spawn(move || {
        let t = rcu2.register();
        let g = t.read_lock();
        std::thread::sleep(Duration::from_millis(100));
        drop(g);
        done2.store(true, Ordering::Relaxed);
    });
    std::thread::sleep(Duration::from_millis(10));
    let o = cache.allocate().unwrap();
    unsafe { cache.free_deferred(o) };
    // quiesce must wait for the reader, then drain.
    cache.quiesce();
    assert!(done.load(Ordering::Relaxed), "quiesce returned before the reader finished");
    reader.join().unwrap();
}

#[test]
fn refill_reuses_holes_behind_premoved_slabs() {
    // Full slabs whose deferred objects are still inside their grace
    // period are pre-moved to the partial list with nothing to give. If
    // they used up the selection window, a refill would see only them
    // once they reach the head of the list and grow, however many holes
    // the partial slabs behind them have.
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = PrudenceCache::new("it", 512, EngineConfig::new(1), pages, Arc::clone(&rcu));
    let per_slab = cache.policy().objects_per_slab;
    let slab_of = |obj: &ObjPtr| obj.addr() / cache.policy().slab_bytes;

    let mut held: Vec<ObjPtr> = (0..400 * per_slab)
        .map(|_| cache.allocate().unwrap())
        .collect();
    let second_half = held.split_off(200 * per_slab);
    // Holes: every other object of the first 200 slabs' worth goes back.
    let mut holes = Vec::new();
    for (i, obj) in held.into_iter().enumerate() {
        if i % 2 == 0 {
            unsafe { cache.free(obj) };
        } else {
            holes.push(obj);
        }
    }
    // Pre-moved slabs: one deferred object in each of 40 slabs that are
    // otherwise fully held, under a reader that keeps the grace period
    // open.
    let reader = rcu.register();
    let guard = reader.read_lock();
    let mut held_in_slab = std::collections::HashMap::new();
    for obj in &second_half {
        *held_in_slab.entry(slab_of(obj)).or_insert(0) += 1;
    }
    let mut premoved = std::collections::HashSet::new();
    let mut kept = Vec::new();
    for obj in second_half {
        let slab = slab_of(&obj);
        if held_in_slab[&slab] == per_slab && premoved.len() < 40 && premoved.insert(slab) {
            unsafe { cache.free_deferred(obj) };
        } else {
            kept.push(obj);
        }
    }
    assert_eq!(premoved.len(), 40);
    // Defer hole objects until the latent cache's overflow batches
    // (Algorithm lines 45-51) have parked every pre-moved slab's object in
    // its latent slab.
    let premoved_in_latent_cache = || {
        let slot = cache.lock_slot(0);
        slot.latent
            .iter()
            .any(|(obj, _)| premoved.contains(&slab_of(obj)))
    };
    while premoved_in_latent_cache() {
        unsafe { cache.free_deferred(holes.pop().unwrap()) };
    }
    assert!(cache.stats().pre_movements >= 40, "{:?}", cache.stats());
    kept.append(&mut holes);

    let grows = cache.stats().grows;
    kept.extend((0..60 * per_slab).map(|_| cache.allocate().unwrap()));
    assert_eq!(
        cache.stats().grows,
        grows,
        "grew with ~100 slabs' worth of holes on the partial list"
    );
    drop(guard);
    for obj in kept {
        unsafe { cache.free(obj) };
    }
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}
