//! The lock engine's per-thread slot assignment.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The lock engine's slot assignment: threads round-robin over slots at
/// first use, mirroring the `CpuRegistry` policy the allocators use for
/// their own per-CPU state.
///
/// The reduction modulo `nslots` is memoized per thread: a hardware
/// divide on every hit-path operation would cost more than the slot
/// stack work itself. The memo revalidates on `nslots` (caches can be
/// sized differently), so the common case is one compare.
#[inline]
pub(crate) fn lock_slot_index(nslots: usize) -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        /// (round-robin base, last nslots seen, base % last nslots)
        static SLOT: Cell<(usize, usize, usize)> = const { Cell::new((usize::MAX, 0, 0)) };
    }
    SLOT.with(|s| {
        let (base, last_n, last_idx) = s.get();
        if last_n == nslots {
            return last_idx;
        }
        let base = if base == usize::MAX {
            NEXT.fetch_add(1, Ordering::Relaxed)
        } else {
            base
        };
        let idx = base % nslots;
        s.set((base, nslots, idx));
        idx
    })
}
