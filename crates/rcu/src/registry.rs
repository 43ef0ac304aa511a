//! The reader registry: per-thread pin records and the one advancer-side
//! barrier-then-scan every protocol (epoch advance, hp scan, hyaline
//! seal) trusts.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;

use crate::membarrier;

const PINNED: u64 = 1 << 63;
const EPOCH_MASK: u64 = PINNED - 1;

/// Hazard-pointer slots per thread record. Sized so the whole record
/// still fits one `CachePadded` cell; the hazard-pointer backend's
/// garbage bound is proportional to `threads × HP_SLOTS`, so small is
/// also the honest choice.
pub const HP_SLOTS: usize = 8;

/// Per-thread epoch record shared between the owning reader thread and the
/// grace-period machinery.
///
/// A single atomic word packs a "pinned" flag (thread is inside a read-side
/// critical section) with the epoch the thread observed when it pinned.
/// The record also carries the per-thread state of the robust reclamation
/// backends (`crate::reclaim`): a monotone outermost-pin sequence and an
/// ejection mark for the Hyaline-style domain, and hazard-pointer slots
/// for the HP domain. Epoch-only deployments pay one extra `Relaxed`
/// store per outermost pin for these fields and nothing else.
#[derive(Debug)]
pub(crate) struct ThreadRecord {
    state: AtomicU64,
    /// Monotone count of outermost pins. Bumped by the owning thread
    /// only, program-ordered *before* the pin store, so any scanner that
    /// observes a pin (Acquire) also observes the sequence number that
    /// pin belongs to. A batch domain records `(id, pin_seq)` pairs; a
    /// later sequence proves the captured critical section has exited.
    pin_seq: AtomicU64,
    /// Cooperative-neutralization mark: the pin sequence whose capture an
    /// ejector revoked (0 = none). Meaningful only while `pin_seq` still
    /// equals the stored value — a new pin gets a new sequence, which
    /// un-ejects the record without any clearing store.
    ejected_seq: AtomicU64,
    /// Hazard-pointer slots (0 = empty). Written by the owning thread,
    /// read by retire-list scanners under the membarrier protocol.
    hazards: [AtomicUsize; HP_SLOTS],
    active: AtomicBool,
    /// Process-unique id, stable for the record's lifetime. Lets the stall
    /// watchdog attribute warnings to a specific reader without keying on
    /// (reusable) heap addresses.
    id: u64,
    /// OS-level thread name captured at registration (records are built on
    /// the reader's own thread), so stall blame can *name* the culprit.
    /// Immutable after construction; empty when the thread is unnamed.
    name: String,
}

impl ThreadRecord {
    pub(crate) fn new() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Self {
            state: AtomicU64::new(0),
            pin_seq: AtomicU64::new(0),
            ejected_seq: AtomicU64::new(0),
            hazards: std::array::from_fn(|_| AtomicUsize::new(0)),
            active: AtomicBool::new(true),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name: std::thread::current()
                .name()
                .unwrap_or_default()
                .to_string(),
        }
    }

    /// Process-unique record id (watchdog attribution).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Name of the owning thread at registration time ("" when unnamed).
    pub(crate) fn thread_name(&self) -> &str {
        &self.name
    }

    /// Marks the thread as inside a critical section at `epoch`.
    ///
    /// Deliberately *not* SeqCst: this store is the read-side fast path.
    /// The required StoreLoad ordering against the critical-section loads
    /// that follow is the caller's [`membarrier::reader_fence`].
    pub(crate) fn pin(&self, epoch: u64) {
        debug_assert_eq!(epoch & PINNED, 0, "epoch overflow");
        self.state.store(PINNED | epoch, Ordering::Release);
    }

    /// Marks the thread as outside any critical section. Release orders
    /// every critical-section access before the unpin becomes visible,
    /// which is the only direction unpin needs.
    pub(crate) fn unpin(&self) {
        self.state.store(0, Ordering::Release);
    }

    /// Returns `Some(epoch)` if the thread is pinned, `None` otherwise —
    /// read via an atomic RMW: an RMW must return the *latest* value in
    /// the word's modification order. The RMW alone does **not** make the
    /// advancer's scan trustworthy (a pin can be buffered behind the
    /// reader's reordered critical-section loads); only a walk inside
    /// [`Registry::barrier_then_scan`] may decide with it.
    pub(crate) fn observe_pinned_epoch(&self) -> Option<u64> {
        Self::decode(self.state.fetch_add(0, Ordering::AcqRel))
    }

    /// Advisory pinned-epoch read (plain `Relaxed` load, may be stale).
    /// Only good for *refusing* an epoch advance early — never for
    /// deciding one; see [`observe_pinned_epoch`].
    ///
    /// [`observe_pinned_epoch`]: Self::observe_pinned_epoch
    pub(crate) fn peek_pinned_epoch(&self) -> Option<u64> {
        Self::decode(self.state.load(Ordering::Relaxed))
    }

    fn decode(s: u64) -> Option<u64> {
        (s & PINNED != 0).then_some(s & EPOCH_MASK)
    }

    /// Whether the record still belongs to a live [`RcuThread`].
    ///
    /// [`RcuThread`]: crate::RcuThread
    pub(crate) fn is_active(&self) -> bool {
        self.active.load(Ordering::Acquire)
    }

    /// Detaches the record from its thread (called on `RcuThread` drop).
    /// Hazard slots are cleared first: a dead thread protects nothing.
    pub(crate) fn deactivate(&self) {
        for h in &self.hazards {
            h.store(0, Ordering::Release);
        }
        self.active.store(false, Ordering::Release);
    }

    /// Bumps and returns the outermost-pin sequence. Single-writer (only
    /// the owning thread calls this), so the load+store pair is exact;
    /// the caller must issue the pin store *after* this in program order
    /// so a scanner's Acquire on the pin word also covers the bump.
    pub(crate) fn begin_pin_seq(&self) -> u64 {
        let next = self.pin_seq.load(Ordering::Relaxed) + 1;
        self.pin_seq.store(next, Ordering::Relaxed);
        next
    }

    /// The current outermost-pin sequence. Scanners must only read this
    /// *after* observing the pin word with Acquire ordering (see
    /// [`begin_pin_seq`](Self::begin_pin_seq)); reading a value newer
    /// than the observed pin's is possible and conservative (it delays a
    /// release, never permits one early).
    pub(crate) fn pin_seq(&self) -> u64 {
        self.pin_seq.load(Ordering::Acquire)
    }

    /// Owner-side advisory read of the pin sequence.
    pub(crate) fn own_pin_seq(&self) -> u64 {
        self.pin_seq.load(Ordering::Relaxed)
    }

    /// Marks pin sequence `seq` as ejected (cooperative neutralization).
    pub(crate) fn eject(&self, seq: u64) {
        self.ejected_seq.store(seq, Ordering::Release);
    }

    /// Whether pin sequence `seq` has been ejected.
    pub(crate) fn ejected_at(&self, seq: u64) -> bool {
        self.ejected_seq.load(Ordering::Acquire) == seq
    }

    /// Publishes a hazard pointer in `slot` (0 clears it). The caller
    /// carries the StoreLoad fence discipline (see [`RcuThread::protect`]).
    ///
    /// [`RcuThread::protect`]: crate::RcuThread::protect
    pub(crate) fn set_hazard(&self, slot: usize, addr: usize) {
        self.hazards[slot].store(addr, Ordering::Release);
    }

    /// Reads the hazard pointer in `slot` (0 = empty). Only trustworthy
    /// inside [`Registry::barrier_then_scan`]; see the `reclaim::hp`
    /// module for the pairing argument.
    pub(crate) fn hazard(&self, slot: usize) -> usize {
        self.hazards[slot].load(Ordering::Acquire)
    }
}

/// A registered reader's record, padded to a full cache line: records are
/// tiny heap cells that would otherwise share lines, putting every
/// reader's pin word on the same line as a stranger's.
pub(crate) type Record = Arc<CachePadded<ThreadRecord>>;

/// The records a walk visits: the registry's active ones.
pub(crate) type Active<'a> = std::iter::Filter<std::slice::Iter<'a, Record>, fn(&&Record) -> bool>;

/// Every reader registered with one domain.
#[derive(Default)]
pub(crate) struct Registry {
    records: Mutex<Vec<Record>>,
}

impl Registry {
    /// Registers the calling thread, pruning records of exited readers.
    pub(crate) fn register(&self) -> Record {
        let record = Arc::new(CachePadded::new(ThreadRecord::new()));
        let mut records = self.records.lock();
        records.retain(|r| r.is_active());
        records.push(Arc::clone(&record));
        record
    }

    /// Runs `f` over the active records with the registry locked. Reads
    /// made here are advisory: good for refusing progress, reporting or
    /// indexing, never for deciding that no reader holds something.
    pub(crate) fn walk<R>(&self, f: impl FnOnce(Active<'_>) -> R) -> R {
        let active: fn(&&Record) -> bool = |r| r.is_active();
        f(self.records.lock().iter().filter(active))
    }

    /// The advancer-side barrier-then-scan: [`walk`](Self::walk) after a
    /// full fence and — when readers run fence-free — a process-wide
    /// membarrier that imposes a barrier on every reader's instruction
    /// stream (soundness argument in the `membarrier` module; in fallback
    /// mode readers fence themselves and it is a no-op). Only pin and
    /// hazard reads made inside `f` may justify reclaiming anything.
    /// Reclamation decisions are orders of magnitude rarer than pins;
    /// this is the cheap side to tax.
    pub(crate) fn barrier_then_scan<R>(&self, f: impl FnOnce(Active<'_>) -> R) -> R {
        fence(Ordering::SeqCst);
        membarrier::heavy_barrier();
        self.walk(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_pin_unpin() {
        let r = ThreadRecord::new();
        assert_eq!(r.observe_pinned_epoch(), None);
        r.pin(7);
        assert_eq!(r.observe_pinned_epoch(), Some(7));
        r.unpin();
        assert_eq!(r.observe_pinned_epoch(), None);
        let e = EPOCH_MASK - 1;
        r.pin(e);
        assert_eq!(r.observe_pinned_epoch(), Some(e), "large epochs round-trip");
    }

    #[test]
    fn pin_seq_is_monotone_and_ejection_is_per_sequence() {
        let r = ThreadRecord::new();
        let s1 = r.begin_pin_seq();
        assert_eq!(s1, 1);
        assert_eq!(r.pin_seq(), 1);
        assert!(!r.ejected_at(s1));
        r.eject(s1);
        assert!(r.ejected_at(s1));
        // A fresh pin gets a fresh sequence, which un-ejects the record
        // without any clearing store.
        let s2 = r.begin_pin_seq();
        assert_eq!(s2, 2);
        assert!(!r.ejected_at(s2));
        assert!(r.ejected_at(s1));
    }

    #[test]
    fn hazard_slots_roundtrip_and_clear_on_deactivate() {
        let r = ThreadRecord::new();
        assert!(r.is_active());
        r.set_hazard(0, 0x1000);
        r.set_hazard(HP_SLOTS - 1, 0x2000);
        assert_eq!(r.hazard(0), 0x1000);
        assert_eq!(r.hazard(HP_SLOTS - 1), 0x2000);
        r.set_hazard(0, 0);
        assert_eq!(r.hazard(0), 0);
        r.deactivate();
        assert!(!r.is_active());
        for slot in 0..HP_SLOTS {
            assert_eq!(r.hazard(slot), 0, "deactivate must clear hazards");
        }
    }

    #[test]
    fn walks_visit_active_records_and_registration_prunes_the_rest() {
        let registry = Registry::default();
        let a = registry.register();
        let b = registry.register();
        a.pin(3);
        b.deactivate();
        let seen: Vec<(u64, Option<u64>)> = registry.barrier_then_scan(|active| {
            active.map(|r| (r.id(), r.observe_pinned_epoch())).collect()
        });
        assert_eq!(seen, vec![(a.id(), Some(3))]);
        let _c = registry.register();
        assert_eq!(
            registry.records.lock().len(),
            2,
            "the dead record was pruned"
        );
    }
}
