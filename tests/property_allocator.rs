//! Property-based tests on allocator invariants (proptest).
//!
//! The central invariants of the reproduction:
//!
//! 1. an allocator never hands out a pointer that is currently live,
//! 2. a deferred object is never handed out before its grace period ends,
//! 3. user-visible accounting (live objects) always balances,
//! 4. every page is returned when the cache drops.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::{ObjPtr, ObjectAllocator, SizingPolicy};
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceCache;
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::slub::SlubCache;

/// One step of the allocator state machine.
#[derive(Debug, Clone)]
enum Op {
    Alloc,
    /// Free the live object at (index % live count).
    Free(usize),
    /// Defer-free the live object at (index % live count).
    Defer(usize),
    /// Wait for a grace period and drain deferred objects.
    Quiesce,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => Just(Op::Alloc),
        2 => any::<usize>().prop_map(Op::Free),
        2 => any::<usize>().prop_map(Op::Defer),
        1 => Just(Op::Quiesce),
    ]
}

/// Mostly allocations and deferrals, rarely a grace period: deferred
/// objects pile up past the latent cache between quiesces.
fn defer_heavy_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        20 => Just(Op::Alloc),
        5 => any::<usize>().prop_map(Op::Free),
        20 => any::<usize>().prop_map(Op::Defer),
        1 => Just(Op::Quiesce),
    ]
}

fn check_allocator(make: impl Fn(Arc<PageAllocator>, Arc<Rcu>) -> Arc<dyn ObjectAllocator>, ops: &[Op]) {
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
    let cache = make(Arc::clone(&pages), Arc::clone(&rcu));

    let mut live: Vec<ObjPtr> = Vec::new();
    let mut live_set: HashSet<usize> = HashSet::new();
    // Deferred objects must not reappear before a quiesce.
    let mut deferred_since_quiesce: HashSet<usize> = HashSet::new();
    let reader = rcu.register();
    let mut guard = Some(reader.read_lock()); // pin so deferred stay deferred

    for op in ops {
        match op {
            Op::Alloc => {
                let obj = cache.allocate().expect("unbounded memory");
                assert!(
                    live_set.insert(obj.addr()),
                    "allocator returned a live pointer twice"
                );
                assert!(
                    !deferred_since_quiesce.contains(&obj.addr()),
                    "deferred object reused before its grace period"
                );
                // Scribble: catches overlap with neighbours under MIRI-less
                // runs via the torn values other assertions would see.
                // SAFETY: fresh exclusive object of 64 bytes.
                unsafe { obj.as_ptr().cast::<u64>().write(obj.addr() as u64) };
                live.push(obj);
            }
            Op::Free(i) => {
                if live.is_empty() {
                    continue;
                }
                let obj = live.swap_remove(i % live.len());
                live_set.remove(&obj.addr());
                // SAFETY: object tracked as live exactly once.
                unsafe { cache.free(obj) };
            }
            Op::Defer(i) => {
                if live.is_empty() {
                    continue;
                }
                let obj = live.swap_remove(i % live.len());
                live_set.remove(&obj.addr());
                deferred_since_quiesce.insert(obj.addr());
                // SAFETY: object tracked as live exactly once.
                unsafe { cache.free_deferred(obj) };
            }
            Op::Quiesce => {
                drop(guard.take());
                cache.quiesce();
                deferred_since_quiesce.clear();
                guard = Some(reader.read_lock());
            }
        }
    }
    drop(guard);
    let stats = cache.stats();
    assert_eq!(
        stats.live_objects as usize,
        live.len(),
        "live-object accounting diverged"
    );
    for obj in live.drain(..) {
        // SAFETY: remaining tracked objects freed exactly once.
        unsafe { cache.free(obj) };
    }
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0);
    drop(cache);
    assert_eq!(pages.used_bytes(), 0, "pages leaked at drop");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64, ..ProptestConfig::default()
    })]

    #[test]
    fn prudence_respects_allocator_invariants(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_allocator(
            |pages, rcu| PrudenceCache::new("prop", 64, EngineConfig::new(2), pages, rcu),
            &ops,
        );
    }

    /// 4 KiB objects have a 12-object latent cache. Every case opens with
    /// one more defer than that under a single pin, so objects park in
    /// latent slabs (lines 45-59), and the defer-heavy ops keep
    /// overflowing between the rare grace periods.
    #[test]
    fn prudence_latent_slabs_respect_invariants(
        ops in proptest::collection::vec(defer_heavy_strategy(), 1..200)
    ) {
        let n = SizingPolicy::for_object_size(4096).object_cache_size + 1;
        let overflow = [vec![Op::Alloc; n], vec![Op::Defer(0); n]].concat();
        check_allocator(
            |pages, rcu| PrudenceCache::new("prop-latent", 4096, EngineConfig::new(1), pages, rcu),
            &[overflow, ops].concat(),
        );
    }

    #[test]
    fn slub_respects_allocator_invariants(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        check_allocator(
            |pages, rcu| SlubCache::new("prop", 64, EngineConfig::new(2), pages, rcu),
            &ops,
        );
    }

    #[test]
    fn object_sizes_never_overlap(size in 1usize..4000, count in 1usize..200) {
        // For arbitrary object sizes, allocated objects never overlap and
        // always lie within allocator memory.
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let cache = PrudenceCache::new("sizes", size, EngineConfig::new(1), pages, rcu);
        let objs: Vec<ObjPtr> = (0..count).map(|_| cache.allocate().unwrap()).collect();
        let real = cache.policy().object_size;
        let mut addrs: Vec<usize> = objs.iter().map(|o| o.addr()).collect();
        addrs.sort_unstable();
        for pair in addrs.windows(2) {
            prop_assert!(pair[1] - pair[0] >= real, "objects overlap");
        }
        // Write every byte of every object; no crash/corruption means the
        // carve is sound.
        for o in &objs {
            // SAFETY: exclusive objects of `real` bytes.
            unsafe { std::ptr::write_bytes(o.as_ptr(), 0x7E, real) };
        }
        for o in objs {
            // SAFETY: freed exactly once.
            unsafe { cache.free(o) };
        }
    }
}
