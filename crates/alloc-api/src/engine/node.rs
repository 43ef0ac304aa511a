//! Node-level state: the slab table, the full/partial/free lists and the
//! per-slab latent-slab tracking, shared by every policy.

use std::collections::VecDeque;

use pbs_rcu::GpState;
use pbs_telemetry::LogHistogram;

use crate::{ListKind, RawSlab, SlabLists};

/// A slab plus its latent slab: the deferred objects belonging to it
/// (paper Figure 4, right side).
///
/// Deferred objects are counted as *allocated* by the underlying
/// [`RawSlab`] until their grace period completes and the engine's
/// pending-list sweep returns them to the free list. With
/// `deferred` empty — always, under a policy that never parks deferred
/// objects in slabs (SLUB) — its list is the plain free/partial/full
/// rule.
#[derive(Debug)]
pub struct Slab {
    pub raw: RawSlab,
    /// Deferred objects (slab-local index, stamp), oldest first.
    pub deferred: VecDeque<(u16, GpState)>,
}

impl Slab {
    pub(crate) fn new(raw: RawSlab) -> Self {
        Self {
            raw,
            deferred: VecDeque::new(),
        }
    }

    /// Returns deferred objects whose grace period completed at `epoch` to
    /// the slab free list, settling each one's stamp into `delay` first.
    /// Returns how many were reclaimed. Private: only
    /// [`Node::reclaim_pending`] may take deferred objects out, or its
    /// list goes stale.
    fn reclaim_completed(&mut self, epoch: u64, delay: &LogHistogram) -> usize {
        let mut reclaimed = 0;
        while let Some(&(idx, gp)) = self.deferred.front() {
            if !gp.is_completed_at(epoch) {
                break;
            }
            self.deferred.pop_front();
            super::settle_stamp(delay, self.raw.object_ptr(idx).addr());
            self.raw.give_back_index(idx);
            reclaimed += 1;
        }
        reclaimed
    }

    /// Whether every allocated object in the slab is deferred — the slab
    /// will be entirely free after the grace period (Algorithm line 56).
    pub(crate) fn all_allocated_deferred(&self) -> bool {
        self.raw.allocated_count() > 0 && self.raw.allocated_count() == self.deferred.len()
    }

    /// The list this slab should be on, *including* pre-movement driven by
    /// deferred-object hints (Algorithm lines 54-57):
    /// * a full slab with deferred objects is pre-moved to the partial
    ///   list (objects are about to come back),
    /// * a slab whose allocated objects are all deferred is pre-moved to
    ///   the free list (the whole slab is about to be free).
    pub(crate) fn classify(&self) -> ListKind {
        if self.raw.is_free() || self.all_allocated_deferred() {
            ListKind::Free
        } else if self.raw.is_full() && self.deferred.is_empty() {
            ListKind::Full
        } else {
            ListKind::Partial
        }
    }

    /// Whether the slab's pages can be returned to the page allocator
    /// right now.
    pub(crate) fn releasable(&self) -> bool {
        self.raw.is_free() && self.deferred.is_empty()
    }
}

/// Per-node slab table and full/partial/free lists, guarded by one lock.
#[derive(Debug, Default)]
pub struct Node {
    pub slabs: Vec<Option<Slab>>,
    pub free_slots: Vec<usize>,
    pub lists: SlabLists,
    pub next_color: usize,
    /// Slabs with pending latent-slab objects, in the order their oldest
    /// stamp was queued. Lets reclamation merge completed objects back
    /// ("objects in the latent slab are merged with the slab", §4.1)
    /// without scanning every slab. A slab is listed exactly once while
    /// its `deferred` is non-empty: `park` lists it with its first
    /// deferred object and only `reclaim_pending` takes deferred objects
    /// out — both private to the engine, which alone calls them. The
    /// sweep stops at the first stamp still inside its grace
    /// period, so anything that emptied a slab's `deferred` behind the
    /// list's back would leave an entry that later stands for newer
    /// stamps and blocks every completed slab behind it.
    pub pending: VecDeque<usize>,
    /// Grace-period stamp taken when the free list was first observed over
    /// the shrink threshold, or `None` while it is within bounds. Shrink
    /// hysteresis: excess free slabs are only released once this stamp's
    /// grace period completes, so slabs emptied by a reclamation burst get
    /// one grace period to be re-demanded before the page allocator sees
    /// them.
    pub shrink_excess_since: Option<GpState>,
}

impl Node {
    pub(crate) fn slab_mut(&mut self, index: usize) -> &mut Slab {
        self.slabs[index].as_mut().expect("live slab index")
    }

    pub(crate) fn slab(&self, index: usize) -> &Slab {
        self.slabs[index].as_ref().expect("live slab index")
    }

    /// Re-lists a slab according to [`Slab::classify`]; returns
    /// `true` if it moved.
    pub(crate) fn relist(&mut self, index: usize) -> bool {
        let kind = self.slab(index).classify();
        if self.lists.kind_of(index) == Some(kind) {
            false
        } else {
            self.lists.move_to(index, kind);
            true
        }
    }

    /// Inserts a new slab and returns its index.
    pub(crate) fn insert_slab(&mut self, slab: Slab) -> usize {
        let index = self.free_slots.pop().unwrap_or(self.slabs.len());
        if index == self.slabs.len() {
            self.slabs.push(Some(slab));
        } else {
            debug_assert!(self.slabs[index].is_none());
            self.slabs[index] = Some(slab);
        }
        self.lists.insert(index, self.slab(index).classify());
        index
    }

    /// Removes a slab from the table and lists, returning it.
    pub(crate) fn remove_slab(&mut self, index: usize) -> Slab {
        self.lists.remove(index);
        let slab = self.slabs[index].take().expect("live slab index");
        self.free_slots.push(index);
        slab
    }

    /// Parks a deferred object in slab `index`'s latent slab and lists the
    /// slab for the sweep with its first one. Does not relist the slab.
    pub(super) fn park(&mut self, index: usize, obj_index: u16, gp: GpState) {
        let slab = self.slab_mut(index);
        let first = slab.deferred.is_empty();
        slab.deferred.push_back((obj_index, gp));
        if first {
            self.pending.push_back(index);
        }
    }

    /// Merges grace-period-complete latent-slab objects back into their
    /// slabs' free lists, draining the pending queue front while stamps
    /// are complete, and records each object's defer→reusable age into
    /// `delay`. Returns the number of objects reclaimed and relists every
    /// touched slab.
    pub(super) fn reclaim_pending(&mut self, epoch: u64, delay: &LogHistogram) -> usize {
        let mut reclaimed = 0;
        while let Some(&index) = self.pending.front() {
            let Some(slab) = self.slabs.get_mut(index).and_then(|s| s.as_mut()) else {
                self.pending.pop_front();
                continue;
            };
            match slab.deferred.front() {
                None => {
                    self.pending.pop_front();
                }
                Some(&(_, gp)) if gp.is_completed_at(epoch) => {
                    reclaimed += slab.reclaim_completed(epoch, delay);
                    self.pending.pop_front();
                    if !self.slab(index).deferred.is_empty() {
                        // Newer stamps remain; queue again behind peers.
                        self.pending.push_back(index);
                    }
                    self.relist(index);
                }
                Some(_) => break, // front stamp still inside its grace period
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SizingPolicy;
    use pbs_mem::PageAllocator;
    use pbs_rcu::Rcu;

    fn mk_slab(policy: &SizingPolicy, pages: &PageAllocator, index: usize) -> Slab {
        let block = pages
            .allocate_aligned(policy.slab_bytes, policy.slab_bytes)
            .unwrap();
        Slab::new(RawSlab::new(block, policy, index, 0))
    }

    #[test]
    fn classify_transitions() {
        let delay = LogHistogram::default();
        let policy = SizingPolicy::for_object_size(512);
        let pages = PageAllocator::new();
        let rcu = Rcu::new();
        let mut slab = mk_slab(&policy, &pages, 0);
        assert_eq!(slab.classify(), ListKind::Free);

        let mut objs = Vec::new();
        slab.raw.take(policy.objects_per_slab, &mut objs);
        assert_eq!(slab.classify(), ListKind::Full);

        // Defer one object: the hint pre-moves the slab to Partial.
        let idx = slab.raw.index_of(objs[0]);
        slab.deferred.push_back((idx, rcu.gp_state()));
        assert_eq!(slab.classify(), ListKind::Partial);

        // Defer the rest: everything allocated is deferred → Free.
        for &o in &objs[1..] {
            slab.deferred
                .push_back((slab.raw.index_of(o), rcu.gp_state()));
        }
        assert_eq!(slab.classify(), ListKind::Free);
        assert!(!slab.releasable(), "pages must wait for the grace period");

        rcu.synchronize();
        let n = slab.reclaim_completed(rcu.current_epoch(), &delay);
        assert_eq!(n, policy.objects_per_slab);
        assert!(slab.releasable());
        pages.free_pages(slab.raw.into_block());
    }

    #[test]
    fn reclaim_stops_at_incomplete_stamp() {
        let delay = LogHistogram::default();
        let policy = SizingPolicy::for_object_size(512);
        let pages = PageAllocator::new();
        let rcu = Rcu::new();
        let mut slab = mk_slab(&policy, &pages, 0);
        let mut objs = Vec::new();
        slab.raw.take(2, &mut objs);
        let early = rcu.gp_state();
        slab.deferred.push_back((slab.raw.index_of(objs[0]), early));
        rcu.synchronize();
        let late = rcu.gp_state();
        slab.deferred.push_back((slab.raw.index_of(objs[1]), late));
        // Only the first stamp is complete.
        assert_eq!(slab.reclaim_completed(early.raw_epoch() + 2, &delay), 1);
        assert_eq!(slab.deferred.len(), 1);
        rcu.synchronize();
        assert_eq!(slab.reclaim_completed(rcu.current_epoch(), &delay), 1);
        pages.free_pages(slab.raw.into_block());
    }

    /// `park` and the sweep keep the list exact: each slab with deferred
    /// objects is named once, in the order of its oldest stamp, through
    /// partial sweeps and re-parks — so the sweep's stop at the first
    /// incomplete stamp never strands a completed slab behind it.
    #[test]
    fn pending_names_each_deferring_slab_once() {
        let delay = LogHistogram::default();
        let policy = SizingPolicy::for_object_size(64);
        let pages = PageAllocator::new();
        let rcu = Rcu::new();
        let mut node = Node::default();
        let a = node.insert_slab(mk_slab(&policy, &pages, 0));
        let b = node.insert_slab(mk_slab(&policy, &pages, 1));
        let (mut objs_a, mut objs_b) = (Vec::new(), Vec::new());
        node.slab_mut(a).raw.take(3, &mut objs_a);
        node.slab_mut(b).raw.take(1, &mut objs_b);
        let idx = |node: &Node, slab: usize, obj| node.slab(slab).raw.index_of(obj);

        let early = rcu.gp_state();
        node.park(a, idx(&node, a, objs_a[0]), early);
        node.park(b, idx(&node, b, objs_b[0]), early);
        rcu.synchronize();
        let late = rcu.gp_state();
        node.park(a, idx(&node, a, objs_a[1]), late);
        assert_eq!(node.pending, [a, b]);

        // Only `early` is complete: `a` keeps its late object and queues
        // again behind `b`, which leaves the list.
        assert_eq!(node.reclaim_pending(early.raw_epoch() + 2, &delay), 2);
        assert_eq!(node.pending, [a]);
        // Nothing complete: the list does not move.
        assert_eq!(node.reclaim_pending(early.raw_epoch() + 2, &delay), 0);
        assert_eq!(node.pending, [a]);
        // A second park into a listed slab does not list it twice; a park
        // into a slab the sweep emptied lists it again, once.
        node.park(a, idx(&node, a, objs_a[2]), late);
        node.slab_mut(b).raw.take(1, &mut objs_b);
        node.park(b, idx(&node, b, objs_b[1]), late);
        assert_eq!(node.pending, [a, b]);

        rcu.synchronize();
        assert_eq!(node.reclaim_pending(rcu.current_epoch(), &delay), 3);
        assert!(node.pending.is_empty());
        for index in [a, b] {
            let slab = node.remove_slab(index);
            assert!(slab.releasable());
            pages.free_pages(slab.raw.into_block());
        }
    }

    #[test]
    fn node_insert_remove_reuses_slots() {
        let policy = SizingPolicy::for_object_size(64);
        let pages = PageAllocator::new();
        let mut node = Node::default();
        let a = node.insert_slab(mk_slab(&policy, &pages, 0));
        let b = node.insert_slab(mk_slab(&policy, &pages, 1));
        assert_eq!((a, b), (0, 1));
        let slab = node.remove_slab(a);
        pages.free_pages(slab.raw.into_block());
        let c = node.insert_slab(mk_slab(&policy, &pages, 0));
        assert_eq!(c, 0, "slot reused");
        for idx in [b, c] {
            let s = node.remove_slab(idx);
            pages.free_pages(s.raw.into_block());
        }
    }

    #[test]
    fn relist_reports_movement() {
        let policy = SizingPolicy::for_object_size(64);
        let pages = PageAllocator::new();
        let mut node = Node::default();
        let i = node.insert_slab(mk_slab(&policy, &pages, 0));
        assert!(!node.relist(i), "already on the right list");
        let mut objs = Vec::new();
        node.slab_mut(i).raw.take(1, &mut objs);
        assert!(node.relist(i), "free → partial after take");
        node.slab_mut(i).raw.give_back(objs[0]);
        assert!(node.relist(i));
        let s = node.remove_slab(i);
        pages.free_pages(s.raw.into_block());
    }
}
