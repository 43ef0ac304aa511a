//! The allocator trait both SLUB and Prudence implement.

use std::fmt;
use std::ptr::NonNull;

use crate::stats::CacheStatsSnapshot;

/// Error returned by [`ObjectAllocator::allocate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The underlying page allocator is out of memory and no deferred
    /// objects could be reclaimed in time.
    OutOfMemory,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory => write!(f, "object allocator out of memory"),
        }
    }
}

impl std::error::Error for AllocError {}

impl From<pbs_mem::OutOfMemory> for AllocError {
    fn from(_: pbs_mem::OutOfMemory) -> Self {
        AllocError::OutOfMemory
    }
}

/// An owned pointer to an object handed out by an [`ObjectAllocator`].
///
/// `ObjPtr` is `Send`/`Sync` because ownership of the underlying object is
/// exclusive until it is freed; transferring the pointer transfers that
/// ownership. The pointee is uninitialized on allocation.
///
/// # Example
///
/// ```
/// use std::ptr::NonNull;
/// use pbs_alloc_api::ObjPtr;
///
/// let mut value = 42u64;
/// let obj = ObjPtr::new(NonNull::from(&mut value).cast());
/// assert_eq!(obj.addr(), &value as *const _ as usize);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjPtr(NonNull<u8>);

// SAFETY: an ObjPtr represents exclusive ownership of an allocator object;
// the allocator types that mint them synchronize internally.
unsafe impl Send for ObjPtr {}
unsafe impl Sync for ObjPtr {}

impl ObjPtr {
    /// Wraps a raw object pointer.
    pub fn new(ptr: NonNull<u8>) -> Self {
        Self(ptr)
    }

    /// Rebuilds the pointer from an address that crossed a `usize`
    /// channel (the fast path, a reclamation domain).
    ///
    /// # Safety
    ///
    /// `addr` must be the [`addr`](Self::addr) of a live `ObjPtr`.
    pub unsafe fn from_addr(addr: usize) -> Self {
        Self(NonNull::new_unchecked(addr as *mut u8))
    }

    /// The pointer as `NonNull`.
    pub fn as_non_null(self) -> NonNull<u8> {
        self.0
    }

    /// The raw pointer.
    pub fn as_ptr(self) -> *mut u8 {
        self.0.as_ptr()
    }

    /// The address as an integer (for masking to slab bases, dedup checks).
    pub fn addr(self) -> usize {
        self.0.as_ptr() as usize
    }
}

/// A slab cache of fixed-size objects with support for *deferred* frees
/// synchronized by RCU.
///
/// Implemented by the SLUB-style baseline (`pbs-slub`, where
/// [`free_deferred`](Self::free_deferred) registers an RCU callback exactly
/// as Linux kernel code does) and by Prudence (`prudence`, where deferred
/// objects enter latent caches/slabs inside the allocator — the paper's
/// contribution).
///
/// # Safety contract
///
/// Pointers returned by [`allocate`](Self::allocate) reference
/// `object_size()` bytes of uninitialized, exclusively-owned memory. The
/// `free` family is `unsafe`: callers must pass pointers obtained from
/// *this* allocator, exactly once, and must not touch the object afterwards
/// (for `free_deferred`, concurrent RCU readers that obtained the pointer
/// before it was unlinked may continue reading it until the grace period
/// ends — that is the point).
pub trait ObjectAllocator: Send + Sync {
    /// Allocates one object.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::OutOfMemory`] when the page allocator is
    /// exhausted and (for Prudence) waiting for deferred objects cannot
    /// satisfy the request either.
    fn allocate(&self) -> Result<ObjPtr, AllocError>;

    /// Immediately frees an object (no readers may reference it).
    ///
    /// # Safety
    ///
    /// `obj` must originate from [`allocate`](Self::allocate) on this
    /// allocator, must not have been freed already, and must not be used
    /// after this call.
    unsafe fn free(&self, obj: ObjPtr);

    /// Defers freeing of an object until after an RCU grace period.
    ///
    /// This is the turnkey replacement for `call_rcu(kfree)` described in
    /// paper §4 (Listing 2).
    ///
    /// # Safety
    ///
    /// `obj` must originate from [`allocate`](Self::allocate) on this
    /// allocator and must not be freed again. The caller must have unlinked
    /// the object so no *new* readers can reach it; pre-existing RCU readers
    /// may keep reading it until the grace period completes.
    ///
    /// Declared `#[track_caller]` so implementations can attribute the
    /// deferred garbage to the freeing call site (the attribute is
    /// inherited by every implementation, including through `dyn`).
    #[track_caller]
    unsafe fn free_deferred(&self, obj: ObjPtr);

    /// Size in bytes of objects served by this cache.
    fn object_size(&self) -> usize;

    /// Human-readable cache name (the paper uses Linux names such as
    /// `filp`, `dentry`, `ext4_inode`, `kmalloc-64`).
    fn name(&self) -> &str;

    /// The RCU domain deferred frees of this allocator synchronize with.
    /// Data structures check their read guards against
    /// [`Rcu::id`](pbs_rcu::Rcu::id) before traversing.
    fn rcu(&self) -> &std::sync::Arc<pbs_rcu::Rcu>;

    /// The reclamation domain this allocator's deferred frees route
    /// through, when it is attached to one (`None` for allocators that
    /// predate the pluggable backends or run pure epoch machinery).
    /// Harnesses use this to read backend stats and drive
    /// [`advance`](pbs_rcu::reclaim::ReclamationDomain::advance) without
    /// knowing the concrete cache type.
    fn reclaim_domain(&self) -> Option<&std::sync::Arc<dyn pbs_rcu::reclaim::ReclamationDomain>> {
        None
    }

    /// Snapshot of the cache statistics (Figures 7–11 inputs).
    fn stats(&self) -> CacheStatsSnapshot;

    /// Telemetry view of the cache: latency histograms and the event-ring
    /// snapshot. The default is empty so simple test allocators need not
    /// carry a ring; real allocators forward their
    /// [`CacheStats::telemetry`](crate::CacheStats::telemetry).
    fn telemetry(&self) -> pbs_telemetry::ComponentTelemetry {
        pbs_telemetry::ComponentTelemetry::default()
    }

    /// Drains what was deferred before the call: blocks until those
    /// frees have been reclaimed and are reusable. Used at the end of
    /// benchmark runs so peak/fragmentation measurements compare like
    /// with like.
    fn quiesce(&self);

    /// Number of objects whose free was deferred and has not yet been
    /// reclaimed into a reusable state. After a [`quiesce`](Self::quiesce)
    /// that no other thread deferred across, this is zero — the gating
    /// harnesses' teardown audit asserts exactly that. The default is `0`
    /// for allocators without a deferral path.
    fn deferred_outstanding(&self) -> usize {
        0
    }

    /// Enables or disables this allocator's per-CPU fast path at
    /// runtime. Disabling must drain any fast-parked objects back into
    /// the regular caches so the switchover is leak-free; both
    /// directions must be safe under concurrent traffic. The default is
    /// a no-op for allocators without a fast path.
    fn fastpath_set_enabled(&self, _enabled: bool) {}

    /// Whether the per-CPU fast path is currently accepting operations.
    /// Allocators without one report `false`.
    fn fastpath_enabled(&self) -> bool {
        false
    }

    /// Switches the fast path's engine live (rseq ⇄ slot-lock
    /// emulation), preserving parked objects. Requests for an
    /// unavailable engine degrade to the portable one. No-op default.
    fn fastpath_set_engine(&self, _engine: pbs_percpu::Engine) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_ptr_roundtrip() {
        let mut buf = [0u8; 8];
        let nn = NonNull::new(buf.as_mut_ptr()).unwrap();
        let p = ObjPtr::new(nn);
        assert_eq!(p.as_non_null(), nn);
        assert_eq!(p.as_ptr(), nn.as_ptr());
        assert_eq!(p.addr(), nn.as_ptr() as usize);
    }

    #[test]
    fn alloc_error_displays() {
        assert!(AllocError::OutOfMemory.to_string().contains("out of memory"));
        let oom = pbs_mem::OutOfMemory { requested_bytes: 1 };
        assert_eq!(AllocError::from(oom), AllocError::OutOfMemory);
    }

    #[test]
    fn obj_ptr_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObjPtr>();
    }
}
