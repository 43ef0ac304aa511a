//! The front ends every engine-backed cache type shares: the cache
//! factory subsystems are built over, and the kmalloc-style size-class
//! heap.

use std::marker::PhantomData;
use std::sync::Arc;

use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{EpochDomain, ReclamationDomain};
use pbs_rcu::Rcu;

use super::{EngineConfig, SlabEngine, SlabPolicy};
use crate::{
    class_index_for, AllocError, CacheFactory, CacheStatsSnapshot, ObjPtr, ObjectAllocator,
    SIZE_CLASSES,
};

/// Creates `SlabEngine<P>` caches sharing one page allocator, reclamation
/// domain and configuration.
pub struct SlabFactory<P: SlabPolicy> {
    config: EngineConfig,
    pages: Arc<PageAllocator>,
    /// One retire stream for every minted cache, the way all caches share
    /// one `rcu`.
    domain: Arc<dyn ReclamationDomain>,
    policy: PhantomData<P>,
}

impl<P: SlabPolicy> std::fmt::Debug for SlabFactory<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabFactory")
            .field("label", &P::LABEL)
            .field("config", &self.config)
            .field("backend", &self.domain.backend())
            .finish()
    }
}

impl<P: SlabPolicy> SlabFactory<P> {
    /// Creates a factory whose caches share `pages`, `config` and one
    /// epoch domain on `rcu` (the paper's scheme).
    pub fn new(config: EngineConfig, pages: Arc<PageAllocator>, rcu: Arc<Rcu>) -> Self {
        Self::with_domain(config, pages, Arc::new(EpochDomain::new(rcu)))
    }

    /// Like [`new`](Self::new), but every minted cache shares `domain`.
    pub fn with_domain(
        config: EngineConfig,
        pages: Arc<PageAllocator>,
        domain: Arc<dyn ReclamationDomain>,
    ) -> Self {
        Self {
            config,
            pages,
            domain,
            policy: PhantomData,
        }
    }

    /// The shared page allocator.
    pub fn pages(&self) -> &Arc<PageAllocator> {
        &self.pages
    }

    /// The shared RCU domain.
    pub fn rcu(&self) -> &Arc<Rcu> {
        self.domain.rcu()
    }

    /// The shared configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Creates one cache with its concrete type.
    pub fn create(&self, name: &str, object_size: usize) -> Arc<SlabEngine<P>> {
        let (config, pages) = (self.config.clone(), Arc::clone(&self.pages));
        SlabEngine::with_domain(name, object_size, config, pages, Arc::clone(&self.domain))
    }
}

impl<P: SlabPolicy> CacheFactory for SlabFactory<P> {
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        self.create(name, object_size)
    }

    fn label(&self) -> &str {
        P::LABEL
    }
}

/// A general-purpose front end: one `SlabEngine<P>` cache per kmalloc
/// size class (`kmalloc-8` … `kmalloc-4096`), as in the Linux kernel. This
/// is the allocator behind the paper's `kfree_deferred()` evaluation API
/// (§5).
#[derive(Debug)]
pub struct KmallocHeap<P: SlabPolicy> {
    caches: Vec<Arc<SlabEngine<P>>>,
}

impl<P: SlabPolicy> KmallocHeap<P> {
    /// Creates the full set of size-class caches sharing one
    /// configuration and one epoch domain on `rcu`.
    pub fn new(config: EngineConfig, pages: Arc<PageAllocator>, rcu: Arc<Rcu>) -> Self {
        let factory = SlabFactory::<P>::new(config, pages, rcu);
        let caches = SIZE_CLASSES
            .iter()
            .map(|&size| factory.create(&format!("kmalloc-{size}"), size))
            .collect();
        Self { caches }
    }

    fn class_for(&self, size: usize) -> Result<&Arc<SlabEngine<P>>, AllocError> {
        self.cache_for(size).ok_or(AllocError::OutOfMemory)
    }

    /// Allocates `size` bytes from the smallest fitting size class.
    ///
    /// # Errors
    ///
    /// Fails if `size` exceeds the largest class or memory is exhausted
    /// even after the recovery ladder ran.
    pub fn kmalloc(&self, size: usize) -> Result<ObjPtr, AllocError> {
        self.class_for(size)?.allocate()
    }

    /// Frees an object previously allocated with `kmalloc(size)`.
    ///
    /// # Safety
    ///
    /// `obj` must come from [`kmalloc`](Self::kmalloc) on this heap with a
    /// size mapping to the same class, freed exactly once, not used after.
    pub unsafe fn kfree(&self, obj: ObjPtr, size: usize) {
        self.class_for(size)
            .expect("size was allocatable")
            .free(obj);
    }

    /// The paper's `kfree_deferred()`: defers the free until after a grace
    /// period.
    ///
    /// # Safety
    ///
    /// As [`kfree`](Self::kfree); additionally the object must already be
    /// unreachable for new readers.
    pub unsafe fn kfree_deferred(&self, obj: ObjPtr, size: usize) {
        self.class_for(size)
            .expect("size was allocatable")
            .free_deferred(obj);
    }

    /// The cache serving a given size.
    pub fn cache_for(&self, size: usize) -> Option<&Arc<SlabEngine<P>>> {
        class_index_for(size).map(|i| &self.caches[i])
    }

    /// All size-class caches.
    pub fn caches(&self) -> &[Arc<SlabEngine<P>>] {
        &self.caches
    }

    /// Statistics for every size class.
    pub fn stats(&self) -> Vec<CacheStatsSnapshot> {
        self.caches.iter().map(|c| c.stats()).collect()
    }

    /// Telemetry (histograms + trace events) for every size class.
    pub fn telemetry(&self) -> Vec<pbs_telemetry::ComponentTelemetry> {
        self.caches.iter().map(|c| c.telemetry()).collect()
    }

    /// Waits until every deferred object in every class is reusable and
    /// nothing is parked on any class's fast path.
    pub fn quiesce(&self) {
        for c in &self.caches {
            c.quiesce();
        }
    }
}
