//! An RCU-protected routing table under reader load with route churn —
//! the classic RCU deployment the paper's introduction motivates.
//!
//! Wait-free readers resolve next hops at full speed while an updater
//! continuously replaces routes (copy-on-update + deferred free). The
//! same table code runs on the SLUB baseline and on Prudence; the example
//! prints lookup/update throughput and the allocator attributes for both.
//!
//! ```text
//! cargo run --release --example rcu_routing_table
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prudence_repro::alloc_api::engine::EngineConfig;
use prudence_repro::alloc_api::CacheFactory;
use prudence_repro::mem::PageAllocator;
use prudence_repro::prudence::PrudenceFactory;
use prudence_repro::rcu::Rcu;
use prudence_repro::slub::SlubFactory;
use prudence_repro::structs::RcuHashMap;

/// A next-hop entry: (gateway, interface) — plain data, RCU-reclaimable.
type NextHop = [u32; 2];

const ROUTES: u64 = 1024;
const READERS: usize = 2;
const RUN: Duration = Duration::from_millis(1500);

fn run(label: &str, rcu: Arc<Rcu>, factory: &dyn CacheFactory) {
    let cache = factory.create_cache("route", 64);
    let table: Arc<RcuHashMap<u64, NextHop>> = Arc::new(RcuHashMap::new(Arc::clone(&cache), 1024));
    for prefix in 0..ROUTES {
        table
            .insert(prefix, [prefix as u32, 1])
            .expect("install route");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let lookups = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let mut updates = 0u64;
    std::thread::scope(|s| {
        for _ in 0..READERS {
            let table = Arc::clone(&table);
            let rcu = Arc::clone(&rcu);
            let stop = Arc::clone(&stop);
            let lookups = Arc::clone(&lookups);
            s.spawn(move || {
                let thread = rcu.register();
                let mut n = 0u64;
                let mut prefix = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let guard = thread.read_lock();
                    let hop = table.get(&guard, &(prefix % ROUTES));
                    drop(guard);
                    assert!(hop.is_some(), "route must always resolve");
                    prefix += 1;
                    n += 1;
                }
                lookups.fetch_add(n, Ordering::Relaxed);
            });
        }
        // Route churn: every insert on an existing prefix is a
        // copy-on-update that defers the old version's free.
        let mut gen = 1u32;
        while start.elapsed() < RUN {
            for prefix in 0..ROUTES {
                table
                    .insert(prefix, [prefix as u32, gen])
                    .expect("update route");
                updates += 1;
            }
            gen = gen.wrapping_add(1);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed().as_secs_f64();
    cache.quiesce();
    let stats = cache.stats();
    println!(
        "{label:9} lookups/s={:>10.0} updates/s={:>9.0} | hit%={:.1} churns(obj/slab)={}/{} peak_slabs={}",
        lookups.load(Ordering::Relaxed) as f64 / elapsed,
        updates as f64 / elapsed,
        stats.hit_percent(),
        stats.object_cache_churns(),
        stats.slab_churns(),
        stats.slabs_peak,
    );
}

fn main() {
    println!(
        "routing table: {ROUTES} routes, {READERS} wait-free readers, continuous route churn\n"
    );
    {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::new());
        let config = EngineConfig::new(READERS + 1);
        let factory = SlubFactory::new(config, Arc::clone(&pages), Arc::clone(&rcu));
        run("slub", rcu, &factory);
    }
    {
        let pages = Arc::new(PageAllocator::new());
        let rcu = Arc::new(Rcu::new());
        let factory = PrudenceFactory::new(
            EngineConfig::new(READERS + 1),
            Arc::clone(&pages),
            Arc::clone(&rcu),
        );
        run("prudence", rcu, &factory);
    }
}
