//! epoll-instance emulation (`eventpoll_epi` traffic).
//!
//! The paper notes that Apache defers frees "during the removal of the
//! target file descriptor from epoll instance" — the `eventpoll_epi` slab
//! cache in Figures 7–11. This type reproduces that traffic: adding an
//! interest allocates an epi entry; removing it defers the free through
//! RCU (as `ep_remove` does).

use pbs_alloc_api::{AllocError, CacheFactory};
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
/// use pbs_alloc_api::CacheInventory;
/// use pbs_mem::PageAllocator;
/// use pbs_rcu::Rcu;
/// use pbs_simnet::Epoll;
/// use prudence::PrudenceFactory;
///
/// let rcu = Arc::new(Rcu::new());
/// let caches = CacheInventory::new(PrudenceFactory::new(
///     EngineConfig::new(2),
///     Arc::new(PageAllocator::new()),
///     Arc::clone(&rcu),
/// ));
/// let ep = Epoll::new(&caches);
/// ep.add(5, 0b1)?; // EPOLLIN-style interest mask
/// assert!(ep.del(5));
/// caches.quiesce();
/// assert_eq!(caches.stats()["eventpoll_epi"].deferred_frees, 1);
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct Epoll {
    /// `fd → interest mask`; nodes live in the `eventpoll_epi` cache.
    interests: RcuHashMap<u64, u32>,
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
        Self {
            interests: RcuHashMap::new(factory.create_cache("eventpoll_epi", EPI_SIZE), 1024),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::CacheInventory;
    use pbs_mem::PageAllocator;
    use pbs_rcu::{Rcu, RcuConfig};
    use prudence::PrudenceFactory;

    fn setup() -> (Arc<Rcu>, CacheInventory, Epoll) {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let caches = CacheInventory::new(PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        ));
        let ep = Epoll::new(&caches);
        (rcu, caches, ep)
    }

    #[test]
    fn add_check_del() {
        let (rcu, caches, ep) = setup();
        let t = rcu.register();
        ep.add(3, 0xF).unwrap();
        let g = t.read_lock();
        assert_eq!(ep.interest(&g, 3), Some(0xF));
        assert_eq!(ep.interest(&g, 4), None);
        drop(g);
        assert!(ep.del(3));
        assert!(!ep.del(3));
        caches.quiesce();
        assert_eq!(caches.stats()["eventpoll_epi"].deferred_frees, 1);
        assert_eq!(caches.stats()["eventpoll_epi"].live_objects, 0);
    }

    #[test]
    fn re_add_replaces_mask() {
        let (rcu, caches, ep) = setup();
        let t = rcu.register();
        ep.add(9, 1).unwrap();
        ep.add(9, 2).unwrap();
        let g = t.read_lock();
        assert_eq!(ep.interest(&g, 9), Some(2));
        drop(g);
        assert_eq!(ep.len(), 1);
        // The replacement deferred the old version.
        caches.quiesce();
        assert_eq!(caches.stats()["eventpoll_epi"].deferred_frees, 1);
    }

    #[test]
    fn churn_defers_every_removal() {
        let (_rcu, caches, ep) = setup();
        for fd in 0..100 {
            ep.add(fd, 1).unwrap();
            assert!(ep.del(fd));
        }
        caches.quiesce();
        assert_eq!(caches.stats()["eventpoll_epi"].deferred_frees, 100);
        assert!(ep.is_empty());
    }
}
