//! Model-based property tests: the RCU data structures must behave like
//! their std-collection models under arbitrary operation sequences — on
//! both allocators and under **all three reclamation backends**, with the
//! reclamation site under fault injection (refused `reclaim.advance`
//! steps only procrastinate).
//!
//! Beyond the randomized sequences, two deterministic scenarios pin down
//! the protected-traversal contract directly:
//!
//! * a hyaline walker parked mid-`for_each` is forcibly ejected and must
//!   resume — via retry-from-root and the positional/seek cursors — into
//!   an *exact* in-order output, with the guard tainted afterwards;
//! * a reader parked inside a walk while every entry is removed around it
//!   must neither crash nor block teardown: after it unparks, the caches
//!   drain to zero live objects under every backend.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::ObjectAllocator;
use prudence_repro::fault::{site, FaultInjector, Schedule};
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceCache;
use prudence_repro::rcu::reclaim::{
    domain_for, ReclaimBackend, ReclaimConfig, ReclamationDomain,
};
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::slub::SlubCache;
use prudence_repro::structs::{RcuBst, RcuHashMap, RcuList};

type Make = fn(Arc<PageAllocator>, Arc<dyn ReclamationDomain>) -> Arc<dyn ObjectAllocator>;

fn make_prudence(
    pages: Arc<PageAllocator>,
    domain: Arc<dyn ReclamationDomain>,
) -> Arc<dyn ObjectAllocator> {
    PrudenceCache::with_domain("prop-structs", 64, EngineConfig::new(2), pages, domain)
}

fn make_slub(
    pages: Arc<PageAllocator>,
    domain: Arc<dyn ReclamationDomain>,
) -> Arc<dyn ObjectAllocator> {
    SlubCache::with_domain("prop-structs", 64, EngineConfig::new(2), pages, domain)
}

const MAKES: [(&str, Make); 2] = [("prudence", make_prudence), ("slub", make_slub)];

/// A fresh (pages, rcu, domain) triple with aggressive reclamation
/// tuning (scans, seals and ejection fuses within milliseconds) and,
/// when `seed` is given, `Probability(0.25)` refusals at the
/// `reclaim.advance` site — a refused step procrastinates, it must never
/// corrupt.
fn rig(
    backend: ReclaimBackend,
    seed: Option<u64>,
) -> (Arc<PageAllocator>, Arc<Rcu>, Arc<dyn ReclamationDomain>) {
    let pages = Arc::new(PageAllocator::new());
    let mut config = RcuConfig::eager();
    if let Some(seed) = seed {
        let faults = Arc::new(FaultInjector::new(seed));
        faults.schedule(site::RECLAIM_ADVANCE, Schedule::Probability(0.25));
        config = config.with_fault_injector(faults);
    }
    let rcu = Arc::new(Rcu::with_config(config));
    let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
    (pages, rcu, domain)
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u64, u64),
    InsertIfAbsent(u64, u64),
    Remove(u64),
    Get(u64),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    let key = 0u64..32;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        (key.clone(), any::<u64>()).prop_map(|(k, v)| MapOp::InsertIfAbsent(k, v)),
        key.clone().prop_map(MapOp::Remove),
        key.prop_map(MapOp::Get),
    ]
}

fn check_map(cache: Arc<dyn ObjectAllocator>, rcu: Arc<Rcu>, ops: &[MapOp]) {
    let map: RcuHashMap<u64, u64> = RcuHashMap::new(Arc::clone(&cache), 8);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let t = rcu.register();
    for op in ops {
        match *op {
            MapOp::Insert(k, v) => {
                let replaced = map.insert(k, v).unwrap();
                assert_eq!(replaced, model.insert(k, v).is_some());
            }
            MapOp::InsertIfAbsent(k, v) => {
                let inserted = map.insert_if_absent(k, v).unwrap();
                if inserted {
                    assert!(model.insert(k, v).is_none());
                }
            }
            MapOp::Remove(k) => {
                assert_eq!(map.remove(&k), model.remove(&k));
            }
            MapOp::Get(k) => {
                let g = t.read_lock();
                assert_eq!(map.get(&g, &k), model.get(&k).copied());
            }
        }
        assert_eq!(map.len(), model.len());
    }
    // Full-content check.
    let g = t.read_lock();
    let mut seen = HashMap::new();
    map.for_each(&g, |k, v| {
        seen.insert(*k, *v);
    });
    assert_eq!(seen, model);
    drop(g);
    drop(map);
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u64, u64),
    Remove(u64),
    Lookup(u64),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    let key = 0u64..48;
    prop_oneof![
        3 => (key.clone(), any::<u64>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        2 => key.clone().prop_map(TreeOp::Remove),
        2 => key.prop_map(TreeOp::Lookup),
    ]
}

fn check_tree(cache: Arc<dyn ObjectAllocator>, rcu: Arc<Rcu>, ops: &[TreeOp]) {
    let tree: RcuBst<u64> = RcuBst::new(Arc::clone(&cache));
    let mut model: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let t = rcu.register();
    for op in ops {
        match *op {
            TreeOp::Insert(k, v) => {
                let replaced = tree.insert(k, v).unwrap();
                assert_eq!(replaced, model.insert(k, v).is_some());
            }
            TreeOp::Remove(k) => {
                assert_eq!(tree.remove(k), model.remove(&k));
            }
            TreeOp::Lookup(k) => {
                let g = t.read_lock();
                assert_eq!(tree.lookup(&g, k), model.get(&k).copied());
            }
        }
        assert_eq!(tree.len(), model.len());
    }
    // In-order traversal must match the sorted model exactly (checks
    // both the BST invariant across successor-path rebuilding and the
    // robust seek-above walk's no-duplicate/no-skip cursor).
    let g = t.read_lock();
    let mut seen = Vec::new();
    tree.for_each(&g, |k, v| seen.push((k, *v)));
    let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(seen, expected);
    drop(g);
    drop(tree);
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}

#[derive(Debug, Clone)]
enum ListOp {
    Insert(u64, u64),
    Update(u64, u64),
    Remove(u64),
    Lookup(u64),
}

fn list_op() -> impl Strategy<Value = ListOp> {
    let key = 0u64..16;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| ListOp::Insert(k, v)),
        (key.clone(), any::<u64>()).prop_map(|(k, v)| ListOp::Update(k, v)),
        key.clone().prop_map(ListOp::Remove),
        key.prop_map(ListOp::Lookup),
    ]
}

fn check_list(cache: Arc<dyn ObjectAllocator>, rcu: Arc<Rcu>, ops: &[ListOp]) {
    let list: RcuList<u64> = RcuList::new(Arc::clone(&cache));
    // Model: insertion-ordered front list with duplicate keys allowed;
    // lookup returns the most recently inserted entry for a key.
    let mut model: Vec<(u64, u64)> = Vec::new();
    let t = rcu.register();
    for op in ops {
        match *op {
            ListOp::Insert(k, v) => {
                list.insert(k, v).unwrap();
                model.insert(0, (k, v));
            }
            ListOp::Update(k, v) => {
                let updated = list.update(k, v).unwrap();
                let pos = model.iter().position(|&(mk, _)| mk == k);
                assert_eq!(updated, pos.is_some());
                if let Some(p) = pos {
                    model[p].1 = v;
                }
            }
            ListOp::Remove(k) => {
                let removed = list.remove(k);
                let pos = model.iter().position(|&(mk, _)| mk == k);
                assert_eq!(removed, pos.is_some());
                if let Some(p) = pos {
                    model.remove(p);
                }
            }
            ListOp::Lookup(k) => {
                let g = t.read_lock();
                let expected = model.iter().find(|&&(mk, _)| mk == k).map(|&(_, v)| v);
                assert_eq!(list.lookup(&g, k), expected);
            }
        }
        assert_eq!(list.len(), model.len());
    }
    let g = t.read_lock();
    let mut seen = Vec::new();
    list.for_each(&g, |k, v| seen.push((k, *v)));
    assert_eq!(seen, model);
    drop(g);
    drop(list);
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn hashmap_matches_model_on_every_backend(
        seed in any::<u64>(),
        ops in proptest::collection::vec(map_op(), 1..100),
    ) {
        for backend in ReclaimBackend::ALL {
            for (_, make) in MAKES {
                let (pages, rcu, domain) = rig(backend, Some(seed));
                check_map(make(pages, domain), rcu, &ops);
            }
        }
    }

    #[test]
    fn list_matches_model_on_every_backend(
        seed in any::<u64>(),
        ops in proptest::collection::vec(list_op(), 1..80),
    ) {
        for backend in ReclaimBackend::ALL {
            for (_, make) in MAKES {
                let (pages, rcu, domain) = rig(backend, Some(seed));
                check_list(make(pages, domain), rcu, &ops);
            }
        }
    }

    #[test]
    fn bst_matches_btreemap_model_on_every_backend(
        seed in any::<u64>(),
        ops in proptest::collection::vec(tree_op(), 1..120),
    ) {
        for backend in ReclaimBackend::ALL {
            for (_, make) in MAKES {
                let (pages, rcu, domain) = rig(backend, Some(seed));
                check_tree(make(pages, domain), rcu, &ops);
            }
        }
    }
}

/// A hyaline walker parked mid-`for_each` is forcibly ejected (its pin
/// blocks sealed batches past the aggressive fuse) and must resume into
/// an exact in-order emission — no duplicate, no skip — with the guard
/// tainted afterwards and a fresh pin clean again.
#[test]
fn hyaline_midwalk_ejection_resumes_walks_exactly() {
    for (name, make) in MAKES {
        let (pages, rcu, domain) = rig(ReclaimBackend::Hyaline, None);
        let cache = make(Arc::clone(&pages), Arc::clone(&domain));
        let tree: RcuBst<u64> = RcuBst::new(Arc::clone(&cache));
        for k in 0..24 {
            tree.insert(k, k * 3).unwrap();
        }
        // Garbage allocated before pinning: an allocation under our own
        // pin could wait on reclamation this pin blocks.
        let mut garbage = Vec::new();
        for _ in 0..128 {
            garbage.push(cache.allocate().unwrap());
        }
        let t = rcu.register();
        let guard = t.read_lock();
        let before = domain.reclaim_stats().ejections;
        let mut seen = Vec::new();
        let mut ejected_mid_walk = false;
        tree.for_each(&guard, |k, v| {
            seen.push((k, *v));
            if k == 5 {
                // Seal batches against our pin, then drive the domain
                // until it ejects us — all from inside the walk.
                for obj in garbage.drain(..) {
                    unsafe { cache.free_deferred(obj) };
                }
                for _ in 0..64 {
                    std::thread::sleep(Duration::from_millis(1));
                    domain.advance();
                    if domain.reclaim_stats().ejections > before {
                        ejected_mid_walk = true;
                        break;
                    }
                }
            }
        });
        let expected: Vec<(u64, u64)> = (0..24).map(|k| (k, k * 3)).collect();
        assert_eq!(seen, expected, "{name}: exact in-order resume after ejection");
        assert!(ejected_mid_walk, "{name}: domain never ejected the parked walker");
        assert!(!guard.validate(), "{name}: ejection must taint the guard");
        drop(guard);
        let g2 = t.read_lock();
        assert!(g2.validate(), "{name}: fresh pin validates again");
        drop(g2);
        drop(tree);
        domain.synchronize();
        cache.quiesce();
        assert_eq!(cache.stats().live_objects, 0, "{name}");
    }
}

/// Teardown with a reader parked *inside* a walk: every entry is removed
/// and the domain driven hard while the walker sits in the `for_each`
/// callback (hazards published, pin held). The walker must finish
/// without crashing or emitting reclaimed data, and the caches must
/// still drain to zero — under every backend, on both allocators.
#[test]
fn teardown_with_a_reader_parked_inside_a_walk() {
    for backend in ReclaimBackend::ALL {
        for (name, make) in MAKES {
            let (pages, rcu, domain) = rig(backend, None);
            let cache = make(Arc::clone(&pages), Arc::clone(&domain));
            let map: RcuHashMap<u64, u64> = RcuHashMap::new(Arc::clone(&cache), 4);
            for k in 0..32 {
                map.insert(k, k + 100).unwrap();
            }
            let (parked_tx, parked_rx) = std::sync::mpsc::channel();
            let (go_tx, go_rx) = std::sync::mpsc::channel();
            let mut walked = 0usize;
            std::thread::scope(|s| {
                let (map, rcu) = (&map, &rcu);
                let worker = s.spawn(move || {
                    let t = rcu.register();
                    let guard = t.read_lock();
                    let mut n = 0usize;
                    let mut parked = false;
                    map.for_each(&guard, |_, v| {
                        assert!(*v >= 100, "emitted value from a reclaimed node");
                        n += 1;
                        if !parked {
                            parked = true;
                            parked_tx.send(()).unwrap();
                            go_rx.recv().unwrap();
                        }
                    });
                    n
                });
                parked_rx.recv().unwrap();
                // Tear the contents down around the parked walker.
                for k in 0..32 {
                    map.remove(&k);
                }
                for _ in 0..16 {
                    domain.advance();
                }
                go_tx.send(()).unwrap();
                walked = worker.join().expect("parked walker must not crash");
            });
            assert!(
                (1..=32).contains(&walked),
                "{backend} on {name}: walker emitted {walked} entries"
            );
            drop(map);
            domain.synchronize();
            cache.quiesce();
            assert_eq!(
                cache.stats().live_objects,
                0,
                "{backend} on {name}: teardown leaked"
            );
        }
    }
}
