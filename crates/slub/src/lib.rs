//! # pbs-slub — the baseline SLUB-style slab allocator
//!
//! A faithful userspace analog of the allocator the Prudence paper compares
//! against: per-CPU object caches over per-node full/partial/free slab
//! lists, refill/flush in halves, grow/shrink against the page allocator.
//!
//! The crate is one [`SlabPolicy`](pbs_alloc_api::engine::SlabPolicy) over
//! the shared [`SlabEngine`](pbs_alloc_api::engine::SlabEngine); every
//! line that is not a SLUB decision is literally the code Prudence runs.
//! The engine's latent caches and latent slabs stay empty here, so its
//! refill and flush sizes are SLUB's whole cache and half, and the OOM
//! ladder's first rung is SLUB's consolidation of every CPU cache.
//!
//! **Deferred frees are not visible to this allocator.** `free_deferred`
//! hands the object to the attached reclamation domain — under the default
//! epoch backend that queues a callback on the
//! [`EpochDomain`](pbs_rcu::reclaim::EpochDomain), exactly like kernel code
//! deferring a `kfree` through RCU — so deferred objects are reclaimed
//! later, in bursts, by the domain's reclaimer threads throttled per
//! [`RcuConfig`](pbs_rcu::RcuConfig). This reproduces the pathologies of
//! paper §3: bursty freeing, extended object lifetimes, high object-cache
//! and slab churn, and OOM under sustained deferred-free load.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//! use pbs_slub::SlubCache;
//!
//! let pages = Arc::new(PageAllocator::new());
//! let rcu = Arc::new(Rcu::new());
//! let cache = SlubCache::new("example", 256, EngineConfig::new(4), pages, rcu);
//!
//! let obj = cache.allocate()?;
//! unsafe { cache.free_deferred(obj) }; // reclaimed after a grace period
//! cache.quiesce();
//! assert_eq!(cache.stats().deferred_frees, 1);
//! # Ok::<(), pbs_alloc_api::AllocError>(())
//! ```

mod cache;

pub use cache::{SlubCache, SlubPolicy};

/// Creates [`SlubCache`]s sharing one page allocator and RCU domain.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::CacheFactory;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_slub::SlubFactory;
///
/// let config = EngineConfig::new(4);
/// let f = SlubFactory::new(config, Arc::new(PageAllocator::new()), Arc::new(Rcu::new()));
/// let cache = f.create_cache("dentry", 192);
/// assert_eq!(cache.object_size(), 192);
/// assert_eq!(f.label(), "slub");
/// ```
pub type SlubFactory = pbs_alloc_api::engine::SlabFactory<SlubPolicy>;

/// A general-purpose allocator front end: one [`SlubCache`] per kmalloc
/// size class.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_slub::SlubHeap;
///
/// let config = EngineConfig::new(4);
/// let heap = SlubHeap::new(config, Arc::new(PageAllocator::new()), Arc::new(Rcu::new()));
/// let obj = heap.kmalloc(100)?; // served by kmalloc-128
/// unsafe { heap.kfree(obj, 100) };
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub type SlubHeap = pbs_alloc_api::engine::KmallocHeap<SlubPolicy>;
