//! # prudence — the Prudence dynamic memory allocator (ASPLOS '16)
//!
//! Prudence is a slab allocator **tightly integrated with
//! procrastination-based synchronization** (RCU). Where the baseline
//! allocator (`pbs-slub`) reclaims deferred objects through opaque RCU
//! callbacks, Prudence makes deferred objects *visible to the allocator*:
//!
//! * [`free_deferred`](pbs_alloc_api::ObjectAllocator::free_deferred) is a
//!   turnkey replacement for
//!   `call_rcu(kfree)` (paper Listing 2). Deferred objects are stamped with
//!   the current [`GpState`](pbs_rcu::GpState) and parked in a per-CPU
//!   **latent cache** (bounded by the object-cache size) or, past that
//!   bound, in the per-slab **latent slab**.
//! * As soon as the grace period completes, latent objects are merged into
//!   the object cache / slab free lists and are immediately reusable —
//!   extended object lifetimes (paper §3.2) are eliminated.
//! * Hints about the future drive the §4.2 optimizations: **partial
//!   refill**, **proportional flush**, **slab pre-movement**,
//!   **deferred-aware slab selection** (Figure 5), and **OOM deferral**.
//!   The paper's idle-time latent-cache pre-flush is not reproduced: a
//!   full latent cache moves its older half to latent slabs in one batch,
//!   and every node-lock trip of the free/defer route settles the
//!   grace-period-complete latent slabs first (DESIGN.md §4c).
//!
//! The latent structures and every motion on them (merge, park into latent
//! slabs, pending-list sweep, drain), the refill/flush sizing that reads
//! them and the OOM ladder belong to the shared
//! [`SlabEngine`](pbs_alloc_api::engine::SlabEngine), where they reduce to
//! the baseline's rules while the structures are empty. This crate is the
//! [`PrudencePolicy`]: when deferred objects enter the latent structures,
//! slab selection, and the shrink threshold. Every decision is hard-wired;
//! a cache is configured by the engine's
//! [`EngineConfig`](pbs_alloc_api::engine::EngineConfig) alone, exactly
//! like the baseline.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//! use prudence::PrudenceCache;
//!
//! let pages = Arc::new(PageAllocator::new());
//! let rcu = Arc::new(Rcu::new());
//! let cache = PrudenceCache::new("example", 256, EngineConfig::new(4), pages, rcu);
//!
//! let obj = cache.allocate()?;
//! unsafe { cache.free_deferred(obj) }; // visible to the allocator at once
//! cache.quiesce();
//! assert_eq!(cache.stats().deferred_frees, 1);
//! # Ok::<(), pbs_alloc_api::AllocError>(())
//! ```

mod cache;

pub use cache::{PrudenceCache, PrudencePolicy};

/// Creates [`PrudenceCache`]s sharing one page allocator, RCU domain and
/// configuration.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_alloc_api::CacheFactory;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use prudence::PrudenceFactory;
///
/// let f = PrudenceFactory::new(
///     EngineConfig::new(4),
///     Arc::new(PageAllocator::new()),
///     Arc::new(Rcu::new()),
/// );
/// let cache = f.create_cache("dentry", 192);
/// assert_eq!(cache.object_size(), 192);
/// assert_eq!(f.label(), "prudence");
/// ```
pub type PrudenceFactory = pbs_alloc_api::engine::SlabFactory<PrudencePolicy>;

/// A general-purpose Prudence front end: one [`PrudenceCache`] per kmalloc
/// size class.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use prudence::PrudenceHeap;
///
/// let heap = PrudenceHeap::new(
///     EngineConfig::new(4),
///     Arc::new(PageAllocator::new()),
///     Arc::new(Rcu::new()),
/// );
/// let obj = heap.kmalloc(100)?;
/// unsafe { heap.kfree_deferred(obj, 100) }; // paper Listing 2
/// heap.quiesce();
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub type PrudenceHeap = pbs_alloc_api::engine::KmallocHeap<PrudencePolicy>;
