//! # pbs-rcu — procrastination-based synchronization (userspace RCU)
//!
//! An epoch-based Read-Copy-Update implementation, the userspace analog of
//! the Linux-kernel RCU the Prudence paper (ASPLOS '16) integrates with.
//!
//! ## Model
//!
//! * Threads [`register`](Rcu::register) with a domain and enter read-side
//!   critical sections with [`RcuThread::read_lock`]. Readers are wait-free:
//!   they never take locks or write shared cachelines other than their own
//!   epoch record.
//! * A global epoch advances only when every reader currently inside a
//!   critical section has observed the current epoch. Two advances after an
//!   object is retired constitute a **grace period**: no reader can still
//!   hold a reference obtained before the retire.
//! * The domain exports grace-period state, not a callback queue: a
//!   writer stamps a [`GpState`] and polls [`Rcu::poll`] — the
//!   **allocator integration interface** Prudence uses (paper §4,
//!   requirement ii). Deferred frees go through a
//!   [`reclaim::ReclamationDomain`]; the classic callback path (a queue
//!   drained by background reclaimer threads with Linux-style batch
//!   throttling — the *baseline* behaviour the paper criticizes) is the
//!   [`reclaim::EpochDomain`] backend.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicPtr, Ordering};
//! use pbs_rcu::Rcu;
//!
//! let rcu = Arc::new(Rcu::new());
//! let reader = rcu.register();
//!
//! let shared = AtomicPtr::new(Box::into_raw(Box::new(1u32)));
//!
//! // Read side: wait-free traversal under a guard.
//! {
//!     let _guard = reader.read_lock();
//!     let value = unsafe { *shared.load(Ordering::Acquire) };
//!     assert_eq!(value, 1);
//! }
//!
//! // Write side: publish a new version, defer freeing the old one.
//! let old = shared.swap(Box::into_raw(Box::new(2u32)), Ordering::AcqRel);
//! let state = rcu.gp_state();
//! rcu.synchronize();
//! assert!(rcu.poll(state));
//! unsafe { drop(Box::from_raw(old)) }; // no readers can reference it now
//! # unsafe { drop(Box::from_raw(shared.load(Ordering::Acquire))) };
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

mod config;
mod domain;
mod epoch;
mod membarrier;
mod reader;
pub mod reclaim;
mod registry;
mod stats;
mod traverse;
mod watchdog;

pub use config::RcuConfig;
pub use domain::Rcu;
pub use epoch::GpState;
pub use reader::{RcuThread, ReadGuard};
pub use registry::HP_SLOTS;
pub use stats::RcuStats;
pub use traverse::{
    poison_link, Retry, Traverse, TraversalKind, LINK_POISON, MAX_WALK_DEPTH,
    MAX_WALK_RETRIES, WALK_SLOTS,
};
pub use watchdog::BlameReport;

/// Forces every domain in this process onto the portable fallback barrier
/// protocol (readers fence themselves; no `membarrier(2)` dependence), as
/// if the kernel lacked `MEMBARRIER_CMD_PRIVATE_EXPEDITED`.
///
/// The barrier strategy is decided once per process and never changes, so
/// this only succeeds when called **before** any read lock or grace-period
/// advance. Returns `true` if the process is now in fallback mode; `false`
/// means the asymmetric protocol was already locked in and the call had no
/// effect. Intended for chaos/fault-injection harnesses that must exercise
/// the fallback fence pairing on kernels where membarrier works.
pub fn force_membarrier_fallback() -> bool {
    membarrier::force_fallback()
}
