//! Backend-aware protected traversal for RCU data structures.
//!
//! A bare guard-protected pointer chase is only sound under the epoch
//! backend, where a pin keeps everything reachable alive. Under the robust
//! reclamation backends (`crate::reclaim`) the same walk is a latent
//! use-after-free: a hazard-pointer domain frees anything without a
//! published hazard, and a Hyaline-style domain revokes an ejected
//! reader's guarantees mid-walk. [`Traverse`] closes that gap with one
//! per-hop primitive, [`load`](Traverse::load), whose meaning follows the
//! backend:
//!
//! * **epoch** — a plain `Acquire` load. The legacy walk, unchanged.
//! * **hp** — Michael's publish-then-revalidate: read the link, publish
//!   the target in a hazard slot, re-read the link; if it changed, retry
//!   with the new value. Hops proceed hand-over-hand across two rotating
//!   slots, so the link being re-read always lives in memory the previous
//!   hop still protects. A third slot pins a *candidate* node
//!   ([`pin_candidate`](Traverse::pin_candidate)) across further descent
//!   — needed by in-order tree walks that must hold their best-so-far
//!   while exploring below it.
//! * **hyaline** — the load is followed by an ejection check against the
//!   pin sequence the traversal started under. An ejected reader gets
//!   [`Retry`]; the [`ReadGuard::walk`] runner re-pins (fresh pin
//!   sequence, live capture again) and restarts the closure from its
//!   root, bounded by [`MAX_WALK_RETRIES`].
//!
//! ## Slot budget
//!
//! Each traversal depth owns a disjoint block of [`WALK_SLOTS`] hazard
//! slots allocated downward from the top of [`HP_SLOTS`]; nested walks
//! (a lookup inside a `for_each` callback) get the next block down, and
//! more than [`MAX_WALK_DEPTH`] concurrent walks on one thread panic.
//! Low-numbered slots stay free for direct [`RcuThread::protect`] users.
//!
//! ## Residual hyaline window
//!
//! Between an ejection check and the dereference it licenses there is an
//! unavoidable window in which the reader can be ejected and the object
//! released. The contract is cooperative, exactly as in Hyaline itself:
//! `eject_after` must dwarf a single hop, so an ejection can only land
//! between *hops* (where the next `load` catches it), not inside one. In
//! this repository's simulated memory the pages backing a released
//! object are never unmapped, so even a lost race reads stale bytes that
//! the per-hop check then refuses to act on — it cannot fault.

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::reader::{RcuThread, ReadGuard};
use crate::reclaim::ReclaimBackend;
use crate::registry::HP_SLOTS;

/// Hazard slots a single traversal depth owns: two hand-over-hand hop
/// slots plus one candidate slot.
pub const WALK_SLOTS: usize = 3;

/// Maximum concurrently nested [`Traverse`]s per thread under the hp
/// backend (each consumes [`WALK_SLOTS`] of the [`HP_SLOTS`] budget).
pub const MAX_WALK_DEPTH: usize = 2;

/// Retry-from-root budget of [`ReadGuard::walk`]. Each retry requires
/// either a *fresh* ejection of the re-pinned reader — the walk itself
/// stalling past `eject_after` again — or the walk landing on a node
/// retired out from under it mid-hop, so exhausting the budget indicates
/// a pathological configuration, and the runner panics rather than spin.
pub const MAX_WALK_RETRIES: usize = 64;

/// The value robust-backend structures store into a retired node's link
/// fields ([`poison_link`]) before deferring it.
///
/// Hazard revalidation alone cannot save a walker parked *on* a retired
/// node: unlinking that node's successor edits the live chain, not the
/// retired node's own link, so a re-read of the stale link still
/// "validates" while its target is freed. Classic hazard-pointer schemes
/// close this with a delete mark on the retired node's link; epoch
/// readers need the exact opposite (retired nodes must keep their links
/// so pinned stack-walkers can cross them). The compromise: structures
/// poison links only when their backend is robust, and the robust
/// [`Traverse::load`] arms treat the poison as [`Retry`] — restart from
/// the root, which reaches only live nodes. Epoch structures never
/// poison and epoch walks never check.
pub const LINK_POISON: usize = usize::MAX;

/// Poisons one link field of a node being retired into a robust backend;
/// call after the node is unlinked and before it is deferred, so the
/// poison store is ordered before the retire-list publication every
/// scanner synchronizes with. See [`LINK_POISON`].
pub fn poison_link<T>(link: &AtomicPtr<T>) {
    link.store(LINK_POISON as *mut T, Ordering::Release);
}

/// Signal that a traversal's protection was revoked mid-walk (hyaline
/// ejection) or that it stepped onto a retired node's poisoned link:
/// every pointer it has read is suspect and the walk must be retried
/// from its root. Returned through the closure's `Result` so `?` unwinds
/// the walk naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry;

/// Which per-hop protection discipline a traversal runs; derived from
/// the [`ReclaimBackend`] the structure's allocator defers into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalKind {
    /// Plain `Acquire` loads; the pin protects everything (the paper's
    /// model, byte-identical to the pre-traversal walks).
    Epoch,
    /// Publish-then-revalidate hazard pointers, hand-over-hand.
    Hp,
    /// Per-hop ejection checks with retry-from-root.
    Hyaline,
}

impl From<ReclaimBackend> for TraversalKind {
    fn from(backend: ReclaimBackend) -> Self {
        match backend {
            ReclaimBackend::Epoch => TraversalKind::Epoch,
            ReclaimBackend::Hp => TraversalKind::Hp,
            ReclaimBackend::Hyaline => TraversalKind::Hyaline,
        }
    }
}

/// One traversal attempt: per-hop protected loads over a linked
/// structure. Created by [`ReadGuard::walk`]; holds this depth's hazard
/// slots (hp) or the starting pin sequence (hyaline) for its lifetime
/// and releases both on drop.
pub struct Traverse<'t> {
    thread: &'t RcuThread,
    kind: TraversalKind,
    /// Lowest slot index of this depth's [`WALK_SLOTS`] block (hp only).
    slot_base: usize,
    /// Which hand-over-hand slot (0/1 within the block) the next
    /// protected hop publishes into.
    cursor: usize,
    /// The outermost-pin sequence this attempt trusts (hyaline only):
    /// an ejection of exactly this sequence revokes the attempt.
    pin_seq: u64,
}

impl<'t> Traverse<'t> {
    pub(crate) fn new(thread: &'t RcuThread, kind: TraversalKind) -> Self {
        let mut slot_base = 0;
        if kind == TraversalKind::Hp {
            let depth = thread.walk_depth.get();
            assert!(
                depth < MAX_WALK_DEPTH,
                "more than {MAX_WALK_DEPTH} nested hazard-publishing traversals on one \
                 thread: the {HP_SLOTS}-slot hazard budget is exhausted"
            );
            slot_base = HP_SLOTS - WALK_SLOTS * (depth + 1);
            thread.walk_depth.set(depth + 1);
        }
        Self {
            thread,
            kind,
            slot_base,
            cursor: 0,
            pin_seq: thread.record.own_pin_seq(),
        }
    }

    /// Reads one link of the structure with the backend's per-hop
    /// protection. The returned pointer (when non-null) is safe to
    /// dereference until the *next* `load`/[`checkpoint`] on this
    /// traversal — under hp because a hazard slot now publishes it,
    /// under hyaline because the pin's capture was still live at the
    /// check (cooperative window caveat in the module docs).
    ///
    /// `link` itself must live in protected memory: the structure head
    /// (never reclaimed) or a node returned by the previous hop.
    ///
    /// [`checkpoint`]: Self::checkpoint
    pub fn load<T>(&mut self, link: &AtomicPtr<T>) -> Result<*mut T, Retry> {
        match self.kind {
            TraversalKind::Epoch => Ok(link.load(Ordering::Acquire)),
            TraversalKind::Hp => {
                let mut p = link.load(Ordering::Acquire);
                loop {
                    if p as usize == LINK_POISON {
                        // This link belongs to a node retired under us:
                        // its target may already be gone, and no re-read
                        // of a retired node's link can ever detect that.
                        // Restart from the root.
                        return Err(Retry);
                    }
                    if p.is_null() {
                        return Ok(p);
                    }
                    // Publish, then re-read: a scan that missed this
                    // hazard membarrier'd before the publish, so if the
                    // target was retired the re-read (ordered after the
                    // publish by protect()'s fence) sees the changed —
                    // or poisoned — link and we act on the new value
                    // instead.
                    self.thread.protect(self.slot_base + self.cursor, p as usize);
                    let q = link.load(Ordering::Acquire);
                    if q == p {
                        // Hand over hand: the next hop publishes into
                        // the other slot, keeping this hop's target —
                        // which holds the next link we'll re-read —
                        // protected across the transition.
                        self.cursor ^= 1;
                        return Ok(p);
                    }
                    p = q;
                }
            }
            TraversalKind::Hyaline => {
                let p = link.load(Ordering::Acquire);
                if p as usize == LINK_POISON || self.ejected() {
                    // A poisoned link means the node under us was
                    // retired; its batch may outlive our pin, but the
                    // link's target's need not. Same remedy as an
                    // ejection: restart from the root.
                    return Err(Retry);
                }
                Ok(p)
            }
        }
    }

    /// Revalidates the traversal's protection without reading a link:
    /// call after copying data out of a node and before acting on it
    /// (returning a value, invoking a callback), so nothing read under a
    /// revoked capture escapes the walk. Free under epoch and hp.
    pub fn checkpoint(&self) -> Result<(), Retry> {
        if self.kind == TraversalKind::Hyaline && self.ejected() {
            return Err(Retry);
        }
        Ok(())
    }

    /// Keeps `node` protected across further descent (hp: republishes it
    /// in this depth's candidate slot; a no-op elsewhere). `node` must
    /// currently be protected by this traversal — it was returned by
    /// [`load`](Self::load) no more than one hop ago — so the republish
    /// extends existing protection and needs no revalidation. Only one
    /// candidate is held at a time; a new call replaces the previous.
    pub fn pin_candidate<T>(&self, node: *mut T) {
        if self.kind == TraversalKind::Hp {
            self.thread.protect(self.slot_base + 2, node as usize);
        }
    }

    fn ejected(&self) -> bool {
        self.thread.record.ejected_at(self.pin_seq)
    }
}

impl Drop for Traverse<'_> {
    fn drop(&mut self) {
        if self.kind == TraversalKind::Hp {
            for slot in self.slot_base..self.slot_base + WALK_SLOTS {
                self.thread.clear_protection(slot);
            }
            self.thread.walk_depth.set(self.thread.walk_depth.get() - 1);
        }
    }
}

impl ReadGuard<'_> {
    /// Runs `body` as a protected traversal, retrying from scratch (with
    /// a fresh pin) when the backend revokes its protection mid-walk.
    ///
    /// `body` receives a [`Traverse`] whose [`load`](Traverse::load) it
    /// must use for every hop, starting from a root embedded in the
    /// structure itself (never reclaimed); `Err(`[`Retry`]`)` — an
    /// ejection under hyaline, a poisoned link under either robust kind
    /// — aborts the attempt, the guard re-pins, and `body` runs again
    /// from the root. Because a retry
    /// means the previous attempt's reads are void, `body` must not leak
    /// side effects from a failed attempt; commit results only after a
    /// final [`checkpoint`](Traverse::checkpoint) (or return them, which
    /// the runner only does for `Ok`).
    ///
    /// # Panics
    ///
    /// After [`MAX_WALK_RETRIES`] revocations (each needing the walk to
    /// stall past `eject_after` *again*), and under hp when more than
    /// [`MAX_WALK_DEPTH`] walks nest on one thread.
    pub fn walk<R>(
        &self,
        kind: TraversalKind,
        mut body: impl FnMut(&mut Traverse<'_>) -> Result<R, Retry>,
    ) -> R {
        for _ in 0..MAX_WALK_RETRIES {
            let mut t = Traverse::new(self.thread(), kind);
            match body(&mut t) {
                Ok(r) => return r,
                Err(Retry) => {
                    // Release this attempt's slots before re-pinning so
                    // the retry starts from a clean block.
                    drop(t);
                    self.repin();
                }
            }
        }
        panic!(
            "traversal revoked {MAX_WALK_RETRIES} times without completing: every retry \
             requires a fresh ejection of this reader or a node retired mid-hop, so \
             either the ejection threshold is pathologically small, the structure churns \
             faster than a walk can cross it, or the walk body blocks"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rcu, RcuConfig};
    use std::sync::atomic::AtomicPtr;
    use std::sync::Arc;

    struct Node {
        value: u64,
        next: AtomicPtr<Node>,
    }

    /// Builds a boxed chain `0 -> 1 -> .. -> n-1`; returns the head link.
    fn chain(n: u64) -> AtomicPtr<Node> {
        let mut head = std::ptr::null_mut();
        for value in (0..n).rev() {
            head = Box::into_raw(Box::new(Node {
                value,
                next: AtomicPtr::new(head),
            }));
        }
        AtomicPtr::new(head)
    }

    fn free_chain(head: &AtomicPtr<Node>) {
        let mut p = head.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: every node came from `Box::into_raw` in `chain`, and
            // each test frees its chain once, after its last walk.
            let b = unsafe { Box::from_raw(p) };
            p = b.next.load(Ordering::Acquire);
        }
    }

    fn sum_walk(guard: &ReadGuard<'_>, kind: TraversalKind, head: &AtomicPtr<Node>) -> u64 {
        guard.walk(kind, |t| {
            let mut sum = 0;
            let mut p = t.load(head)?;
            while !p.is_null() {
                // SAFETY: `p` came from the last `load` on this walk, and the
                // chain stays allocated until the test frees it.
                let node = unsafe { &*p };
                sum += node.value;
                p = t.load(&node.next)?;
            }
            t.checkpoint()?;
            Ok(sum)
        })
    }

    #[test]
    fn every_kind_walks_a_static_chain() {
        let rcu = Rcu::with_config(RcuConfig::eager());
        let t = rcu.register();
        let head = chain(10);
        let guard = t.read_lock();
        for kind in [TraversalKind::Epoch, TraversalKind::Hp, TraversalKind::Hyaline] {
            assert_eq!(sum_walk(&guard, kind, &head), 45, "{kind:?}");
        }
        assert!(guard.validate(), "no revocation, no taint");
        drop(guard);
        free_chain(&head);
    }

    #[test]
    fn hp_walk_publishes_and_clears_hazards() {
        let rcu = Rcu::with_config(RcuConfig::eager());
        let t = rcu.register();
        let head = chain(3);
        let first = head.load(Ordering::Acquire);
        let guard = t.read_lock();
        guard.walk(TraversalKind::Hp, |tr| {
            let p = tr.load(&head)?;
            assert_eq!(p, first);
            // The hop's hazard slot publishes exactly this node, in the
            // top slot block.
            let record = &t.record;
            let published: Vec<usize> =
                (0..HP_SLOTS).map(|s| record.hazard(s)).filter(|&a| a != 0).collect();
            assert_eq!(published, vec![p as usize]);
            assert!(record.hazard(HP_SLOTS - WALK_SLOTS) != 0);
            tr.pin_candidate(p);
            assert_eq!(record.hazard(HP_SLOTS - 1), p as usize, "candidate slot");
            Ok(())
        });
        // Dropping the traversal cleared its whole slot block.
        for slot in 0..HP_SLOTS {
            assert_eq!(t.record.hazard(slot), 0, "slot {slot} leaked");
        }
        drop(guard);
        free_chain(&head);
    }

    #[test]
    fn nested_hp_walks_use_disjoint_slot_blocks() {
        let rcu = Rcu::with_config(RcuConfig::eager());
        let t = rcu.register();
        let outer_chain = chain(2);
        let inner_chain = chain(2);
        let guard = t.read_lock();
        guard.walk(TraversalKind::Hp, |outer| {
            let po = outer.load(&outer_chain)?;
            let outer_slot_addr = t.record.hazard(HP_SLOTS - WALK_SLOTS);
            assert_eq!(outer_slot_addr, po as usize);
            let inner_sum = sum_walk(&guard, TraversalKind::Hp, &inner_chain);
            assert_eq!(inner_sum, 1);
            // The nested walk ran in the block below and left the outer
            // hop's hazard untouched.
            assert_eq!(t.record.hazard(HP_SLOTS - WALK_SLOTS), po as usize);
            Ok(())
        });
        drop(guard);
        free_chain(&outer_chain);
        free_chain(&inner_chain);
    }

    #[test]
    #[should_panic(expected = "nested hazard-publishing traversals")]
    fn hp_walk_nesting_past_slot_budget_panics() {
        let rcu = Rcu::with_config(RcuConfig::eager());
        let t = rcu.register();
        let head = chain(1);
        let guard = t.read_lock();
        guard.walk(TraversalKind::Hp, |_| {
            guard.walk(TraversalKind::Hp, |_| {
                guard.walk(TraversalKind::Hp, |_| Ok(()));
                Ok(())
            });
            Ok(())
        });
        drop(guard);
        free_chain(&head);
    }

    #[test]
    fn hyaline_ejection_retries_with_a_fresh_pin_and_taints_the_guard() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let t = rcu.register();
        let head = chain(4);
        let guard = t.read_lock();
        // Forced mid-walk ejection: revoke the current pin on the first
        // attempt, exactly as the hyaline release pass does to a
        // stalled reader.
        let mut attempts = 0;
        let seen_seqs = std::cell::RefCell::new(Vec::new());
        let sum = guard.walk(TraversalKind::Hyaline, |tr| {
            attempts += 1;
            seen_seqs.borrow_mut().push(t.record.own_pin_seq());
            if attempts == 1 {
                t.record.eject(t.record.own_pin_seq());
            }
            let mut sum = 0;
            let mut p = tr.load(&head)?;
            while !p.is_null() {
                // SAFETY: as in `sum_walk`: a live node from this walk's
                // last `load`.
                let node = unsafe { &*p };
                sum += node.value;
                p = tr.load(&node.next)?;
            }
            tr.checkpoint()?;
            Ok(sum)
        });
        assert_eq!(sum, 6);
        assert_eq!(attempts, 2, "one revoked attempt, one clean retry");
        let seqs = seen_seqs.borrow();
        assert!(seqs[1] > seqs[0], "retry ran under a fresh pin sequence");
        // The guard is tainted: pre-ejection raw reads are not to be
        // trusted, even though the walk's own result is.
        assert!(!guard.validate());
        drop(guard);
        let g2 = t.read_lock();
        assert!(g2.validate(), "fresh outermost pin clears the taint");
        drop(g2);
        free_chain(&head);
    }

    #[test]
    fn poisoned_links_retry_robust_walks_and_restart_from_the_root() {
        // A chain whose second node has been "retired": its outgoing
        // link is poisoned. A robust walk that reaches it must restart
        // from the head rather than chase the dangling pointer; once the
        // head is repaired to skip the retired node, the walk completes.
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let t = rcu.register();
        let head = chain(4); // 0 -> 1 -> 2 -> 3
        let first = head.load(Ordering::Acquire);
        // SAFETY: the chain's four nodes stay allocated until
        // `free_chain` at the end, and this thread is the only writer;
        // every dereference of `first`, `second` and `third` below
        // leans on the same fact.
        let second = unsafe { (*first).next.load(Ordering::Acquire) };
        // SAFETY: as above.
        let third = unsafe { (*second).next.load(Ordering::Acquire) };
        for kind in [TraversalKind::Hp, TraversalKind::Hyaline] {
            // SAFETY: as above.
            poison_link(unsafe { &(*second).next });
            let guard = t.read_lock();
            let mut attempts = 0;
            let sum = guard.walk(kind, |tr| {
                attempts += 1;
                if attempts == 2 {
                    // "Unlink" the retired node so the retry succeeds.
                    head.store(first, Ordering::Release);
                    // SAFETY: as above.
                    unsafe { (*first).next.store(third, Ordering::Release) };
                }
                let mut sum = 0;
                let mut p = tr.load(&head)?;
                while !p.is_null() {
                    // SAFETY: as above.
                    let node = unsafe { &*p };
                    sum += node.value;
                    p = tr.load(&node.next)?;
                }
                tr.checkpoint()?;
                Ok(sum)
            });
            assert_eq!(sum, 5, "{kind:?}: 0 + 2 + 3 once node 1 is skipped");
            assert_eq!(attempts, 2, "{kind:?}: one poisoned attempt, one clean");
            drop(guard);
            // Restore the chain for the next kind's iteration.
            // SAFETY: as above.
            unsafe { (*second).next.store(third, Ordering::Release) };
            // SAFETY: as above.
            unsafe { (*first).next.store(second, Ordering::Release) };
        }
        // Free manually: node 1 is re-linked, so free_chain sees all 4.
        free_chain(&head);
    }

    #[test]
    fn traversal_kind_tracks_backend() {
        for backend in ReclaimBackend::ALL {
            let kind = TraversalKind::from(backend);
            match backend {
                ReclaimBackend::Epoch => assert_eq!(kind, TraversalKind::Epoch),
                ReclaimBackend::Hp => assert_eq!(kind, TraversalKind::Hp),
                ReclaimBackend::Hyaline => assert_eq!(kind, TraversalKind::Hyaline),
            }
        }
    }
}
