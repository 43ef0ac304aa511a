//! Property and deterministic tests of the pluggable reclamation
//! backends (epoch, hazard-pointer, Hyaline-style), run against both
//! allocators.
//!
//! Reuses the op-sequence state machine of `property_fault.rs`, with the
//! fault schedule aimed at the `reclaim.advance` site every backend's
//! progress step consults: refused scans, seals and grace-period
//! advances only procrastinate, so every backend must keep
//! the same invariants the epoch scheme always had:
//!
//! 1. allocation never hands out a live address twice, whatever backend
//!    reclaims retired objects;
//! 2. live-object accounting stays balanced and `quiesce` drains every
//!    deferred object once no reader blocks progress;
//! 3. every page returns to the system when the cache drops — even when
//!    the cache is torn down while a reader is still parked inside a
//!    read-side critical section;
//! 4. the backends' *stalled-reader contracts* hold deterministically:
//!    a hazard-protected address is never reused, a Hyaline-captured
//!    batch outlives its reader's pin, and with a deliberately parked
//!    reader the robust backends keep outstanding garbage bounded while
//!    the epoch backend demonstrably does not.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::{ObjPtr, ObjectAllocator};
use prudence_repro::fault::{site, FaultInjector, Schedule};
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceCache;
use prudence_repro::rcu::reclaim::{
    domain_for, ReclaimBackend, ReclaimConfig, ReclamationDomain,
};
use prudence_repro::rcu::{Rcu, RcuConfig};
use prudence_repro::slub::SlubCache;

type Make = fn(Arc<PageAllocator>, Arc<dyn ReclamationDomain>) -> Arc<dyn ObjectAllocator>;

fn make_prudence(
    pages: Arc<PageAllocator>,
    domain: Arc<dyn ReclamationDomain>,
) -> Arc<dyn ObjectAllocator> {
    PrudenceCache::with_domain("prop-reclaim", 64, EngineConfig::new(2), pages, domain)
}

fn make_slub(
    pages: Arc<PageAllocator>,
    domain: Arc<dyn ReclamationDomain>,
) -> Arc<dyn ObjectAllocator> {
    SlubCache::with_domain("prop-reclaim", 64, EngineConfig::new(2), pages, domain)
}

const MAKES: [(&str, Make); 2] = [("prudence", make_prudence), ("slub", make_slub)];

/// A fresh (pages, rcu, domain) triple with the aggressive tuning the
/// short-lived test runs need (scans and ejections within milliseconds).
fn rig(
    backend: ReclaimBackend,
    faults: Option<&Arc<FaultInjector>>,
) -> (Arc<PageAllocator>, Arc<Rcu>, Arc<dyn ReclamationDomain>) {
    let pages = Arc::new(PageAllocator::new());
    let mut config = RcuConfig::eager();
    if let Some(faults) = faults {
        config = config.with_fault_injector(Arc::clone(faults));
    }
    let rcu = Arc::new(Rcu::with_config(config));
    let domain = domain_for(Arc::clone(&rcu), backend, ReclaimConfig::aggressive());
    (pages, rcu, domain)
}

#[derive(Debug, Clone)]
enum Op {
    Alloc,
    Free(usize),
    Defer(usize),
    Quiesce,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => Just(Op::Alloc),
        2 => any::<usize>().prop_map(Op::Free),
        2 => any::<usize>().prop_map(Op::Defer),
        1 => Just(Op::Quiesce),
    ]
}

/// Invariants 1–3 for one backend/allocator pair under injected
/// reclamation refusals.
fn check_backend(backend: ReclaimBackend, make: Make, seed: u64, fault_p: f64, ops: &[Op]) {
    let faults = Arc::new(FaultInjector::new(seed));
    faults.schedule(site::RECLAIM_ADVANCE, Schedule::Probability(fault_p));
    let (pages, _rcu, domain) = rig(backend, Some(&faults));
    let cache = make(Arc::clone(&pages), domain);

    let mut live: Vec<ObjPtr> = Vec::new();
    let mut live_set: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for op in ops {
        match op {
            Op::Alloc => {
                if let Ok(obj) = cache.allocate() {
                    assert!(
                        live_set.insert(obj.addr()),
                        "{backend}: allocator returned a live pointer twice"
                    );
                    live.push(obj);
                }
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
                // SAFETY: object tracked as live exactly once.
                unsafe { cache.free_deferred(obj) };
            }
            Op::Quiesce => cache.quiesce(),
        }
    }

    assert_eq!(
        cache.stats().live_objects as usize,
        live.len(),
        "{backend}: live-object accounting diverged"
    );
    for obj in live.drain(..) {
        // SAFETY: remaining tracked objects freed exactly once.
        unsafe { cache.free(obj) };
    }
    cache.quiesce();
    assert_eq!(cache.stats().live_objects, 0, "{backend}");
    assert_eq!(
        cache.deferred_outstanding(),
        0,
        "{backend}: deferred not drained at quiesce"
    );
    drop(cache);
    assert_eq!(pages.used_bytes(), 0, "{backend}: pages leaked");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, ..ProptestConfig::default()
    })]

    #[test]
    fn every_backend_survives_op_sequences_under_injected_refusals(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        seed in any::<u64>(),
        fault_pm in 0u32..600,
    ) {
        for backend in ReclaimBackend::ALL {
            for (_, make) in MAKES {
                check_backend(backend, make, seed, f64::from(fault_pm) / 1000.0, &ops);
            }
        }
    }
}

/// Invariant 4, the gating contrast: with a reader deliberately parked in
/// a read-side critical section, 512 deferred frees leave the robust
/// backends with a bounded remainder (scan threshold / ejection fuse do
/// their work), while the epoch backend keeps every single one — the
/// unbounded-garbage failure mode this PR exists to bound.
#[test]
fn parked_reader_bounds_garbage_on_robust_backends_only() {
    const DEFERS: usize = 512;
    const BOUND: usize = 256;
    for backend in ReclaimBackend::ALL {
        for (label, make) in MAKES {
            let (pages, rcu, domain) = rig(backend, None);
            let cache = make(Arc::clone(&pages), Arc::clone(&domain));
            let objs: Vec<ObjPtr> = (0..DEFERS)
                .map(|_| cache.allocate().expect("unfaulted allocation"))
                .collect();
            let reader = rcu.register();
            let guard = reader.read_lock();
            for obj in objs {
                // SAFETY: each object deferred exactly once.
                unsafe { cache.free_deferred(obj) };
            }
            // Let the Hyaline ejection fuse (2 ms aggressive) burn, then
            // drive the domain a few times.
            std::thread::sleep(Duration::from_millis(5));
            for _ in 0..4 {
                domain.advance();
            }
            let outstanding = cache.deferred_outstanding();
            if backend == ReclaimBackend::Epoch {
                assert!(
                    outstanding > BOUND,
                    "{label}/{backend}: expected the epoch backend to wedge \
                     (outstanding {outstanding} <= bound {BOUND})"
                );
            } else {
                assert!(
                    outstanding <= BOUND,
                    "{label}/{backend}: outstanding {outstanding} exceeds bound {BOUND} \
                     under a parked reader"
                );
            }
            drop(guard);
            cache.quiesce();
            assert_eq!(cache.deferred_outstanding(), 0, "{label}/{backend}");
            drop(cache);
            assert_eq!(pages.used_bytes(), 0, "{label}/{backend}: pages leaked");
        }
    }
}

/// The hazard-pointer reader contract: an address published in a hazard
/// slot is never reclaimed — and therefore never handed out again — for
/// as long as the slot holds it, no matter how many scans run.
#[test]
fn hazard_protected_address_is_never_reused() {
    for (label, make) in MAKES {
        let (pages, rcu, domain) = rig(ReclaimBackend::Hp, None);
        let cache = make(Arc::clone(&pages), Arc::clone(&domain));
        let protected = cache.allocate().expect("unfaulted allocation");
        let addr = protected.addr();
        let reader = rcu.register();
        reader.protect(0, addr);
        // SAFETY: `protected` retired exactly once; the hazard keeps it.
        unsafe { cache.free_deferred(protected) };
        for _ in 0..4 {
            domain.advance();
        }
        assert_eq!(
            cache.deferred_outstanding(),
            1,
            "{label}: scan reclaimed a hazard-protected address"
        );
        // While protected, the address must not come back out of allocate.
        let mut fresh: Vec<ObjPtr> = Vec::new();
        for _ in 0..64 {
            let obj = cache.allocate().expect("unfaulted allocation");
            assert_ne!(obj.addr(), addr, "{label}: protected address reused");
            fresh.push(obj);
        }
        for obj in fresh {
            // SAFETY: each object freed exactly once.
            unsafe { cache.free(obj) };
        }
        reader.clear_protection(0);
        for _ in 0..4 {
            domain.advance();
        }
        assert_eq!(
            cache.deferred_outstanding(),
            0,
            "{label}: cleared hazard did not release the object"
        );
        cache.quiesce();
        drop(cache);
        assert_eq!(pages.used_bytes(), 0, "{label}: pages leaked");
    }
}

/// The Hyaline reader contract: a reader pinned when a batch seals is
/// captured in the batch's reference set, and the batch cannot be freed
/// until that reader unpins (here the ejection fuse is left at its 1 s
/// default so only the unpin can release it).
#[test]
fn captured_batches_outlive_their_readers_pin() {
    for (label, make) in MAKES {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        // Small batches so seals happen mid-run; default (long) fuse so
        // ejection cannot mask a broken capture set.
        let config = ReclaimConfig {
            batch_size: 16,
            ..ReclaimConfig::default()
        };
        let domain = domain_for(Arc::clone(&rcu), ReclaimBackend::Hyaline, config);
        let cache = make(Arc::clone(&pages), Arc::clone(&domain));
        let objs: Vec<ObjPtr> = (0..64)
            .map(|_| cache.allocate().expect("unfaulted allocation"))
            .collect();
        let reader = rcu.register();
        let guard = reader.read_lock();
        for obj in objs {
            // SAFETY: each object deferred exactly once.
            unsafe { cache.free_deferred(obj) };
        }
        for _ in 0..4 {
            domain.advance();
        }
        assert_eq!(
            cache.deferred_outstanding(),
            64,
            "{label}: a captured batch was freed under its reader's pin"
        );
        assert!(guard.validate(), "{label}: un-ejected reader failed validation");
        drop(guard);
        for _ in 0..4 {
            domain.advance();
        }
        assert_eq!(
            cache.deferred_outstanding(),
            0,
            "{label}: batches not released after the capturing reader unpinned"
        );
        cache.quiesce();
        drop(cache);
        assert_eq!(pages.used_bytes(), 0, "{label}: pages leaked");
    }
}

/// Invariant 3, hard mode: tearing a cache down while a reader is still
/// parked inside a critical section — with deferred objects undrained —
/// must neither hang nor leak a page, on every backend. (Deferred
/// addresses still queued in the domain refer to the dead cache only
/// through a Weak client handle, so late deliveries are dropped, not
/// dereferenced.)
#[test]
fn teardown_with_a_parked_reader_is_clean() {
    for backend in ReclaimBackend::ALL {
        for (label, make) in MAKES {
            let (pages, rcu, domain) = rig(backend, None);
            let cache = make(Arc::clone(&pages), Arc::clone(&domain));
            let mut objs: Vec<ObjPtr> = (0..32)
                .map(|_| cache.allocate().expect("unfaulted allocation"))
                .collect();
            let reader = rcu.register();
            let guard = reader.read_lock();
            for obj in objs.drain(..16) {
                // SAFETY: each object deferred exactly once.
                unsafe { cache.free_deferred(obj) };
            }
            for obj in objs {
                // SAFETY: each object freed exactly once.
                unsafe { cache.free(obj) };
            }
            // Reader still parked; the cache goes away regardless.
            drop(cache);
            assert_eq!(
                pages.used_bytes(),
                0,
                "{label}/{backend}: pages leaked through a parked-reader teardown"
            );
            drop(guard);
            // The domain outlives the cache; late passes must not panic.
            domain.advance();
        }
    }
}
