//! epoll-instance emulation (`eventpoll_epi` traffic).
//!
//! The paper notes that Apache defers frees "during the removal of the
//! target file descriptor from epoll instance" — the `eventpoll_epi` slab
//! cache in Figures 7–11. This type reproduces that traffic: adding an
//! interest allocates an epi entry; removing it defers the free through
//! RCU (as `ep_remove` does).

use std::sync::Arc;

use pbs_alloc_api::{AllocError, CacheFactory, CacheStatsSnapshot, ObjectAllocator};
use pbs_rcu::ReadGuard;
use pbs_structs::RcuHashMap;

/// Size of the Linux `eventpoll_epi` slab object.
const EPI_SIZE: usize = 128;

/// A simulated epoll instance.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pbs_alloc_api::engine::EngineConfig;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_simnet::Epoll;
/// use prudence::PrudenceFactory;
///
/// let rcu = Arc::new(Rcu::new());
/// let factory = PrudenceFactory::new(
///     EngineConfig::new(2),
///     Arc::new(PageAllocator::new()),
///     Arc::clone(&rcu),
/// );
/// let ep = Epoll::new(&factory);
/// ep.add(5, 0b1)?; // EPOLLIN-style interest mask
/// assert!(ep.del(5));
/// ep.quiesce();
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct Epoll {
    /// `fd → interest mask`; nodes live in the `eventpoll_epi` cache.
    interests: RcuHashMap<u64, u32>,
    epi_cache: Arc<dyn ObjectAllocator>,
}

impl std::fmt::Debug for Epoll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoll")
            .field("interests", &self.interests.len())
            .finish()
    }
}

impl Epoll {
    /// Creates an epoll instance whose epi entries come from `factory`.
    pub fn new(factory: &dyn CacheFactory) -> Self {
        let epi_cache = factory.create_cache("eventpoll_epi", EPI_SIZE);
        Self {
            interests: RcuHashMap::new(Arc::clone(&epi_cache), 1024),
            epi_cache,
        }
    }

    /// Registers interest in `fd` (allocates an epi entry; replaces any
    /// existing registration copy-on-update).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError`] on allocator exhaustion.
    pub fn add(&self, fd: u64, mask: u32) -> Result<(), AllocError> {
        self.interests.insert(fd, mask)?;
        Ok(())
    }

    /// Removes interest in `fd`; the epi entry's free is deferred. Returns
    /// `true` if a registration existed.
    pub fn del(&self, fd: u64) -> bool {
        self.interests.remove(&fd).is_some()
    }

    /// Reads the registered mask under an RCU guard (the poll-wakeup path).
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain.
    pub fn interest(&self, guard: &ReadGuard<'_>, fd: u64) -> Option<u32> {
        self.interests.get(guard, &fd)
    }

    /// Registered descriptors.
    pub fn len(&self) -> usize {
        self.interests.len()
    }

    /// Whether no descriptors are registered.
    pub fn is_empty(&self) -> bool {
        self.interests.is_empty()
    }

    /// The `eventpoll_epi` cache statistics.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.epi_cache.stats()
    }

    /// Deferred epi entries not yet reclaimed.
    pub fn deferred_outstanding(&self) -> usize {
        self.epi_cache.deferred_outstanding()
    }

    /// Waits for all deferred epi frees.
    pub fn quiesce(&self) {
        self.epi_cache.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_mem::PageAllocator;
    use pbs_rcu::{Rcu, RcuConfig};
    use prudence::PrudenceFactory;

    fn setup() -> (Arc<Rcu>, Epoll) {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let factory = PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        );
        let ep = Epoll::new(&factory);
        (rcu, ep)
    }

    #[test]
    fn add_check_del() {
        let (rcu, ep) = setup();
        let t = rcu.register();
        ep.add(3, 0xF).unwrap();
        let g = t.read_lock();
        assert_eq!(ep.interest(&g, 3), Some(0xF));
        assert_eq!(ep.interest(&g, 4), None);
        drop(g);
        assert!(ep.del(3));
        assert!(!ep.del(3));
        ep.quiesce();
        assert_eq!(ep.stats().deferred_frees, 1);
        assert_eq!(ep.stats().live_objects, 0);
    }

    #[test]
    fn re_add_replaces_mask() {
        let (rcu, ep) = setup();
        let t = rcu.register();
        ep.add(9, 1).unwrap();
        ep.add(9, 2).unwrap();
        let g = t.read_lock();
        assert_eq!(ep.interest(&g, 9), Some(2));
        drop(g);
        assert_eq!(ep.len(), 1);
        // The replacement deferred the old version.
        ep.quiesce();
        assert_eq!(ep.stats().deferred_frees, 1);
    }

    #[test]
    fn churn_defers_every_removal() {
        let (_rcu, ep) = setup();
        for fd in 0..100 {
            ep.add(fd, 1).unwrap();
            assert!(ep.del(fd));
        }
        ep.quiesce();
        assert_eq!(ep.stats().deferred_frees, 100);
        assert!(ep.is_empty());
    }
}
