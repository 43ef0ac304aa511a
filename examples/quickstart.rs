//! Quickstart: the Prudence allocator in five minutes.
//!
//! Shows the paper's Listing 2 flow — `free_deferred` as a turnkey
//! replacement for registering RCU callbacks — plus the allocator
//! statistics behind the evaluation figures.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceCache;
use prudence_repro::rcu::Rcu;

fn main() {
    // Substrates: a page allocator (the "buddy allocator") and an RCU
    // domain (the synchronization mechanism Prudence integrates with).
    let pages = Arc::new(PageAllocator::new());
    let rcu = Arc::new(Rcu::new());

    // A Prudence slab cache for 256-byte objects on 4 CPU slots.
    let cache = PrudenceCache::new(
        "quickstart",
        256,
        EngineConfig::new(4),
        Arc::clone(&pages),
        Arc::clone(&rcu),
    );

    // A reader enters a critical section; objects it can reach are
    // protected until the guard drops.
    let reader = rcu.register();

    // Writer side (paper Listing 2): allocate a new version, publish it,
    // defer the free of the old version.
    let old_version = cache.allocate().expect("allocate old version");
    let new_version = cache.allocate().expect("allocate new version");
    // SAFETY: both objects are exclusively owned and 256 bytes.
    unsafe {
        old_version.as_ptr().cast::<u64>().write(1);
        new_version.as_ptr().cast::<u64>().write(2);
    }

    let guard = reader.read_lock(); // a reader is now "traversing"
    // ... the writer unlinks old_version and defers its free:
    // SAFETY: old_version is unlinked (no new readers) and freed once.
    unsafe { cache.free_deferred(old_version) };

    println!("deferred objects waiting: {}", cache.deferred_outstanding());
    assert_eq!(cache.deferred_outstanding(), 1);

    // The reader finishes; after a grace period the deferred object is
    // reusable *inside the allocator* — no callback ever runs.
    drop(guard);
    rcu.synchronize();
    cache.quiesce();
    println!("deferred objects waiting: {}", cache.deferred_outstanding());

    // SAFETY: new_version freed once, not used after.
    unsafe { cache.free(new_version) };

    let stats = cache.stats();
    println!(
        "stats: allocs={} hit%={:.1} deferred_frees={} grows={} peak_slabs={}",
        stats.alloc_requests,
        stats.hit_percent(),
        stats.deferred_frees,
        stats.grows,
        stats.slabs_peak
    );
    println!("memory outstanding: {} bytes", pages.used_bytes());
    drop(cache);
    assert_eq!(pages.used_bytes(), 0);
    println!("all pages returned — done");
}
