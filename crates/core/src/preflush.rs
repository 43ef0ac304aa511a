//! Idle-time latent-cache pre-flush worker (§4.2).
//!
//! The paper schedules pre-flushing during CPU idle time (inspired by
//! "Idleness is not sloth") so it never interferes with the allocation and
//! free hot paths. The userspace analog is a low-priority background thread
//! per cache that drains pre-flush requests from a channel — it only runs
//! when the OS has spare cycles to schedule it, and the hot paths only pay
//! one `try_send` when they foresee a post-grace-period overflow.

use std::sync::Weak;

use crossbeam::channel::Receiver;

use crate::cache::Engine;

/// Worker loop: drains CPU indices whose latent caches need pre-flushing.
/// Exits when the cache is dropped (channel closed or upgrade fails).
pub(crate) fn preflush_worker(cache: Weak<Engine>, rx: Receiver<usize>) {
    while let Ok(cpu_idx) = rx.recv() {
        let Some(cache) = cache.upgrade() else {
            return;
        };
        cache.slab_policy().preflush(&cache, cpu_idx);
    }
}
