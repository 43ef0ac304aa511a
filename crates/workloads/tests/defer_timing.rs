//! Every reclaim route times every deferred object.
//!
//! A deferred object comes back through one of three routes: a
//! latent-cache merge, the latent-slab sweep, or a domain delivery. Each
//! route settles the object's site stamp and records its age into the
//! owning cache's `defer_delay_ns`, so after a full drain the histogram
//! holds exactly one sample per deferred object, on every allocator and
//! backend.
//!
//! The stamp table is process-global, so this suite lives in its own test
//! binary with a single test: no other test's stamps can be overwritten
//! (`lost_stamps`) or counted here.

use pbs_alloc_api::ObjectAllocator;
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig};
use pbs_rcu::RcuConfig;
use pbs_workloads::{AllocatorKind, Testbed};

const OBJ_SIZE: usize = 64;
/// Defers issued while a reader is pinned: more than a latent cache holds,
/// so Prudence under epoch parks the overflow in latent slabs.
const PINNED_DEFERS: usize = 1_000;
/// Defers issued after the reader unpins.
const FREE_DEFERS: usize = 500;

fn defer_all(cache: &dyn ObjectAllocator, objs: Vec<pbs_alloc_api::ObjPtr>) {
    for o in objs {
        // SAFETY: each object was allocated above and is deferred once.
        unsafe { cache.free_deferred(o) };
    }
}

#[test]
fn every_route_times_every_deferred_object() {
    pbs_telemetry::set_enabled(true);
    for kind in AllocatorKind::BOTH {
        for backend in ReclaimBackend::ALL {
            let bed = Testbed::new_tuned(
                kind,
                2,
                RcuConfig::eager(),
                None,
                None,
                None,
                None,
                Some((backend, ReclaimConfig::default())),
            );
            let cache = bed.create_cache(&format!("timing-{kind}-{backend}"), OBJ_SIZE);
            let objs: Vec<_> = (0..PINNED_DEFERS + FREE_DEFERS)
                .map(|_| cache.allocate().expect("timing allocation"))
                .collect();
            let (pinned, free) = objs.split_at(PINNED_DEFERS);
            let reader = bed.rcu().register();
            let guard = reader.read_lock();
            defer_all(&*cache, pinned.to_vec());
            drop(guard);
            defer_all(&*cache, free.to_vec());
            cache.quiesce();

            let label = format!("{kind}/{backend}");
            let stats = cache.stats();
            assert_eq!(stats.deferred_frees, objs.len() as u64, "{label}");
            assert_eq!(cache.deferred_outstanding(), 0, "{label}: quiesce drained");
            if kind == AllocatorKind::Prudence && backend == ReclaimBackend::Epoch {
                assert!(
                    stats.pre_movements > 0,
                    "{label}: overflow reached latent slabs"
                );
            }
            let timed = cache
                .telemetry()
                .histogram("defer_delay_ns")
                .map_or(0, |h| h.count);
            assert_eq!(
                timed, stats.deferred_frees,
                "{label}: defer_delay_ns samples"
            );
        }
    }
    assert_eq!(pbs_telemetry::site::report().lost_stamps, 0);
}
