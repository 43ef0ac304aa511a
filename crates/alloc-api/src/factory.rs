//! Factory for creating named slab caches on a chosen allocator design,
//! and the inventory that remembers every cache a factory minted.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::stats::CacheStatsSnapshot;
use crate::traits::ObjectAllocator;

/// Creates named object caches. Simulated kernel subsystems (`pbs-simfs`,
/// `pbs-simnet`) take a factory so the *same* subsystem code runs over the
/// SLUB baseline or Prudence — the comparison the paper's Figures 7–13
/// make.
///
/// Implementations: [`SlubFactory`](crate::slub::SlubFactory),
/// [`PrudenceFactory`](crate::prudence::PrudenceFactory) and
/// [`CacheInventory`], which records what another factory mints.
pub trait CacheFactory: Send + Sync {
    /// Creates a cache named `name` serving `object_size`-byte objects.
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator>;

    /// Short label for reports ("slub" or "prudence").
    fn label(&self) -> &str;
}

/// A [`CacheFactory`] that keeps a weak handle to every cache it mints,
/// so "which caches does this run own" has one answer however many
/// subsystems minted them privately. It never keeps a cache alive: a
/// dropped cache leaves the inventory.
///
/// `pbs_workloads::Testbed` mints every cache through one, so its
/// telemetry and the gating runs' teardown audit read every cache a
/// `SimFs`, `SimNet`, `Epoll` or `ShardedNet` built. The benchmark
/// harness's `Bed` (`ledger/src/bin/ledger/harness.rs`) still keeps its
/// own list of the caches it mints; a later change to the benchmark can
/// drop that copy and read this one.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::prudence::PrudenceFactory;
/// use pbs_alloc_api::{CacheFactory, CacheInventory};
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
///
/// let caches = CacheInventory::new(PrudenceFactory::new(
///     EngineConfig::new(2),
///     Arc::new(PageAllocator::new()),
///     Arc::new(Rcu::new()),
/// ));
/// let a = caches.create_cache("filp", 256);
/// let b = caches.create_cache("filp", 256);
/// for cache in [&a, &b] {
///     let obj = cache.allocate()?;
///     unsafe { cache.free_deferred(obj) };
/// }
/// caches.quiesce();
/// assert_eq!(caches.deferred_outstanding(), 0);
/// assert_eq!(caches.stats()["filp"].deferred_frees, 2);
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct CacheInventory {
    inner: Box<dyn CacheFactory>,
    minted: Mutex<Vec<Weak<dyn ObjectAllocator>>>,
}

impl CacheInventory {
    /// An empty inventory minting through `inner`.
    pub fn new(inner: impl CacheFactory + 'static) -> Self {
        Self {
            inner: Box::new(inner),
            minted: Mutex::new(Vec::new()),
        }
    }

    /// Adds a cache minted elsewhere and hands it back.
    pub fn record(&self, cache: Arc<dyn ObjectAllocator>) -> Arc<dyn ObjectAllocator> {
        let mut minted = self.minted.lock();
        minted.retain(|weak| weak.strong_count() > 0);
        minted.push(Arc::downgrade(&cache));
        cache
    }

    /// Every recorded cache still alive, in the order it was minted.
    pub fn caches(&self) -> Vec<Arc<dyn ObjectAllocator>> {
        self.minted
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .collect()
    }

    /// Drains what every live cache deferred before the call.
    pub fn quiesce(&self) {
        for cache in self.caches() {
            cache.quiesce();
        }
    }

    /// Deferred objects not yet reusable, over every live cache.
    pub fn deferred_outstanding(&self) -> usize {
        self.caches().iter().map(|c| c.deferred_outstanding()).sum()
    }

    /// Every live cache's statistics, keyed by cache name. Same-named
    /// caches (a filesystem's and a network stack's `filp`, one `sock`
    /// per shard) merge into one row, as one Linux slab cache would.
    pub fn stats(&self) -> BTreeMap<String, CacheStatsSnapshot> {
        let mut rows = BTreeMap::<String, CacheStatsSnapshot>::new();
        for cache in self.caches() {
            let stats = cache.stats();
            rows.entry(cache.name().to_owned())
                .and_modify(|row| row.merge(&stats))
                .or_insert(stats);
        }
        rows
    }
}

impl CacheFactory for CacheInventory {
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        self.record(self.inner.create_cache(name, object_size))
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}
