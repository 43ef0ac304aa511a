//! Reader threads and read-side critical sections.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::domain::Inner;
use crate::membarrier;
use crate::reclaim::ReclaimBackend;
use crate::registry::{Record, HP_SLOTS};

/// Per-thread handle to an RCU domain; entry point for read-side critical
/// sections.
///
/// Obtained from [`Rcu::register`](crate::Rcu::register). Intentionally
/// `!Send`: the epoch record it pins is owned by the registering thread.
pub struct RcuThread {
    pub(crate) inner: Arc<Inner>,
    pub(crate) record: Record,
    nesting: Cell<u32>,
    /// Set when a traversal re-pinned this thread after an ejection
    /// ([`ReadGuard::repin`]): raw pointers read earlier in the critical
    /// section are no longer protected, so [`ReadGuard::validate`] stays
    /// `false` until a fresh outermost `read_lock`. Values *returned* by
    /// a completed [`ReadGuard::walk`] were checkpointed before the
    /// re-pin and remain trustworthy.
    tainted: Cell<bool>,
    /// Nesting depth of hazard-publishing traversals currently live on
    /// this thread; each depth owns a disjoint block of hazard slots
    /// (see `crate::traverse`).
    pub(crate) walk_depth: Cell<usize>,
    _not_send: PhantomData<*const ()>,
}

impl std::fmt::Debug for RcuThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuThread")
            .field("nesting", &self.nesting.get())
            .finish()
    }
}

impl RcuThread {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        let record = inner.registry.register();
        Self {
            inner,
            record,
            nesting: Cell::new(0),
            tainted: Cell::new(false),
            walk_depth: Cell::new(0),
            _not_send: PhantomData,
        }
    }

    /// Enters a read-side critical section. Critical sections nest; the
    /// thread is unpinned when the outermost guard drops.
    ///
    /// While any guard is live, objects reachable when the guard was taken
    /// will not be reclaimed by deferred frees in this domain.
    pub fn read_lock(&self) -> ReadGuard<'_> {
        let n = self.nesting.get();
        if n == 0 {
            // A fresh outermost critical section starts untainted: no
            // pointer read under a *previous* pin can leak into it.
            self.tainted.set(false);
            self.pin();
        }
        self.nesting.set(n + 1);
        ReadGuard { thread: self }
    }

    /// Takes an outermost pin at the current epoch. The sequence bump
    /// precedes the pin store in program order, so a batch-domain scanner
    /// that observes the pin (Acquire) then reads the sequence sees at
    /// least the value this pin belongs to (see `reclaim::hyaline`).
    #[inline]
    fn pin(&self) {
        let epoch = self.inner.epoch.load(Ordering::Acquire);
        self.record.begin_pin_seq();
        self.record.pin(epoch);
        membarrier::reader_fence();
    }

    /// Whether the thread is currently inside a read-side critical section.
    pub fn in_critical_section(&self) -> bool {
        self.nesting.get() > 0
    }

    /// Blocks until a full grace period elapses.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a read-side critical section (which
    /// would self-deadlock).
    pub fn synchronize(&self) {
        self.assert_outside("synchronize");
        self.inner.synchronize(false);
    }

    /// See [`Rcu::synchronize_expedited`](crate::Rcu::synchronize_expedited).
    ///
    /// # Panics
    ///
    /// Panics if called from inside a read-side critical section (which
    /// would self-deadlock).
    pub fn synchronize_expedited(&self) {
        self.assert_outside("synchronize_expedited");
        self.inner.synchronize(true);
    }

    fn assert_outside(&self, call: &str) {
        assert_eq!(
            self.nesting.get(),
            0,
            "{call}() called inside a read-side critical section"
        );
    }

    /// Publishes a hazard pointer for `addr` in `slot`
    /// (`slot < `[`HP_SLOTS`][crate::HP_SLOTS]).
    ///
    /// Required by the hazard-pointer reclamation backend: unlike epoch
    /// pinning, holding a [`ReadGuard`] alone does *not* keep an object
    /// alive under that backend — only a published (and then
    /// re-validated) hazard does. The protocol is acquire-validate:
    ///
    /// 1. read the shared pointer,
    /// 2. `protect(slot, addr)`,
    /// 3. re-read the shared pointer; if it changed, go to 1.
    ///
    /// Once validation succeeds the object cannot be reclaimed until the
    /// hazard is cleared: a retire-list scan that missed this hazard must
    /// have run its membarrier before step 2, in which case step 3 runs
    /// after the object's unlink was globally visible and validation
    /// fails. The publication carries the same reader fence as the pin in
    /// [`read_lock`](Self::read_lock).
    pub fn protect(&self, slot: usize, addr: usize) {
        assert!(slot < HP_SLOTS, "hazard slot {slot} out of range");
        self.record.set_hazard(slot, addr);
        membarrier::reader_fence();
    }

    /// Clears the hazard pointer in `slot`; the object it protected may
    /// be reclaimed by the next scan.
    pub fn clear_protection(&self, slot: usize) {
        self.record.set_hazard(slot, 0);
    }
}

impl Drop for RcuThread {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.nesting.get(),
            0,
            "RcuThread dropped while inside a read-side critical section"
        );
        self.record.unpin();
        self.record.deactivate();
    }
}

/// RAII guard for a read-side critical section; see [`RcuThread::read_lock`].
#[derive(Debug)]
pub struct ReadGuard<'a> {
    thread: &'a RcuThread,
}

impl<'a> ReadGuard<'a> {
    /// The domain this critical section belongs to; see
    /// [`Rcu::id`](crate::Rcu::id).
    pub fn domain_id(&self) -> u64 {
        self.thread.inner.id
    }

    /// Crate-internal: the thread this guard pins (traversal machinery).
    pub(crate) fn thread(&self) -> &'a RcuThread {
        self.thread
    }

    /// Whether this critical section is still honored by every
    /// reclamation backend.
    ///
    /// Under the epoch and hazard-pointer backends this is always
    /// `true`. Under the Hyaline-style backend a reader pinned for
    /// longer than the configured ejection threshold *while blocking
    /// sealed batches* may be ejected — its capture is revoked so the
    /// garbage it blocks stays bounded. An ejected reader must not
    /// dereference pointers read earlier in the critical section; the
    /// cooperative contract is to call `validate()` after any
    /// potentially long stall (or before trusting a traversal that
    /// resumed after one) and restart from safe roots when it returns
    /// `false`. This mirrors DEBRA+'s neutralization recovery path with
    /// a poll in place of a signal.
    ///
    /// A guard whose thread was re-pinned by a traversal recovering from
    /// an ejection ([`walk`](Self::walk)) also reports `false` — sticky
    /// until the next outermost `read_lock` — because raw pointers read
    /// before the recovery are just as unprotected as under the ejection
    /// itself. Values *returned* by a completed `walk` are exempt: they
    /// were checkpointed before being handed out.
    pub fn validate(&self) -> bool {
        let record = &self.thread.record;
        !self.thread.tainted.get() && !record.ejected_at(record.own_pin_seq())
    }

    /// Whether this guard actually participates in `backend`'s reader
    /// protocol: the [`Rcu`](crate::Rcu) it pins is watched by a
    /// reclamation domain of that backend (its hazard slots are scanned,
    /// its pins are batch-captured).
    ///
    /// Epoch protection needs no domain cooperation — any pin on the
    /// right registry blocks the epoch — so `Epoch` is always `true`.
    /// Data structures whose allocator defers into a robust backend call
    /// this from their guard checks: a guard from a matching `Rcu` that
    /// no hp/hyaline domain watches would pass a plain domain-id check
    /// while protecting nothing.
    pub fn protects_backend(&self, backend: ReclaimBackend) -> bool {
        backend == ReclaimBackend::Epoch || self.thread.inner.backend_attached(backend)
    }

    /// Crate-internal ejection recovery: drop the current pin and take a
    /// fresh one (new pin sequence, current epoch), so a traversal can
    /// retry from its root with live protection. Marks the thread
    /// [`tainted`](RcuThread::tainted) — everything read under the old
    /// pin is now suspect.
    ///
    /// Between the unpin and the re-pin the thread is momentarily
    /// outside any critical section, which is exactly what lets the
    /// backend release the batches the ejected pin was blocking.
    /// Hazard slots are untouched: hp protection is per-address and
    /// survives the re-pin.
    pub(crate) fn repin(&self) {
        self.thread.tainted.set(true);
        self.thread.record.unpin();
        self.thread.pin();
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let n = self.thread.nesting.get();
        debug_assert!(n > 0);
        if n == 1 {
            // The Release store inside unpin orders prior reads of shared
            // data before the unpin; no fence needed on this side.
            self.thread.record.unpin();
        }
        self.thread.nesting.set(n - 1);
    }
}

#[cfg(test)]
mod tests {
    use crate::Rcu;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "read-side critical section")]
    fn synchronize_inside_cs_panics() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let _g = t.read_lock();
        t.synchronize();
    }

    #[test]
    #[should_panic(expected = "read-side critical section")]
    fn synchronize_expedited_inside_cs_panics() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let _g = t.read_lock();
        t.synchronize_expedited();
    }

    #[test]
    fn dropping_pinned_thread_releases_grace_period() {
        let rcu = Rcu::new();
        let state = {
            let t = rcu.register();
            let g = t.read_lock();
            let s = rcu.gp_state();
            // Guard dropped before the thread handle, as required.
            drop(g);
            drop(t);
            s
        };
        rcu.synchronize();
        assert!(rcu.poll(state));
    }

    #[test]
    fn thread_registration_churn() {
        let rcu = Arc::new(Rcu::new());
        // Register and drop many readers; the registry must not grow
        // without bound and grace periods must keep completing.
        for _ in 0..50 {
            let t = rcu.register();
            let g = t.read_lock();
            drop(g);
            drop(t);
        }
        rcu.synchronize();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let rcu = Arc::clone(&rcu);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let t = rcu.register();
                        let _g = t.read_lock();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        rcu.synchronize();
    }

    #[test]
    fn multithreaded_readers_and_synchronize() {
        let rcu = Arc::new(Rcu::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let t = rcu.register();
                    while !stop.load(Ordering::Relaxed) {
                        let _g = t.read_lock();
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            rcu.synchronize();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(rcu.stats().gp_advances >= 100);
    }
}
