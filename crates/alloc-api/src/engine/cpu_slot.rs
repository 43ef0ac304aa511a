//! Per-CPU allocator state: the object cache and its latent cache.

use std::collections::VecDeque;

use pbs_rcu::GpState;

use crate::ObjPtr;

/// One latent-cache entry: the deferred object and the grace-period state
/// at defer time. Its defer time lives in the object's site stamp.
pub type LatentEntry = (ObjPtr, GpState);

/// One CPU slot's caches (paper Figure 4, left side).
///
/// * `obj_cache` — free objects ready to serve allocations.
/// * `latent` — deferred objects stamped with the grace-period state at
///   defer time, oldest first. Hidden from allocation until their grace
///   period completes, then merged into `obj_cache`.
///
/// A policy without latent caches (SLUB) leaves `latent` empty. Merging
/// out of it is the engine's latent merge: that is where a latent object
/// leaves the deferred backlog.
#[derive(Debug, Default)]
pub struct CpuSlot {
    pub obj_cache: Vec<ObjPtr>,
    pub latent: VecDeque<LatentEntry>,
}

impl CpuSlot {
    /// Moves latent objects whose grace period has completed into the
    /// object cache, up to `capacity` (Algorithm 1, MERGE_CACHES,
    /// lines 60-65). Stamps are non-decreasing front-to-back, so a failed
    /// front check ends the merge. Returns the number merged; `on_merge`
    /// receives each merged object so the caller can settle its stamp.
    pub(super) fn merge_caches(
        &mut self,
        epoch: u64,
        capacity: usize,
        mut on_merge: impl FnMut(ObjPtr),
    ) -> usize {
        let mut merged = 0;
        while self.obj_cache.len() < capacity {
            match self.latent.front() {
                Some(&(_, gp)) if gp.is_completed_at(epoch) => {
                    let (obj, _) = self.latent.pop_front().expect("front exists");
                    self.obj_cache.push(obj);
                    on_merge(obj);
                    merged += 1;
                }
                _ => break,
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ptr::NonNull;

    fn obj(addr: usize) -> ObjPtr {
        ObjPtr::new(NonNull::new(addr as *mut u8).unwrap())
    }

    fn gp(epoch: u64) -> GpState {
        // GpState is opaque; fabricate via transmute-free path: epoch 0
        // states come from a fresh Rcu. For unit tests we use the fact that
        // is_completed_at(e) == e >= raw + 2 and construct via Rcu.
        let rcu = pbs_rcu::Rcu::new();
        let mut state = rcu.gp_state();
        while state.raw_epoch() < epoch {
            rcu.synchronize();
            state = rcu.gp_state();
        }
        state
    }

    #[test]
    fn merge_respects_grace_period() {
        let mut cpu = CpuSlot::default();
        let early = gp(0);
        cpu.latent.push_back((obj(0x1000), early));
        cpu.latent.push_back((obj(0x2000), early));
        let raw = early.raw_epoch();
        assert_eq!(
            cpu.merge_caches(raw + 1, 10, |_| {}),
            0,
            "grace period incomplete"
        );
        assert_eq!(cpu.merge_caches(raw + 2, 10, |_| {}), 2);
        assert_eq!(cpu.obj_cache.len(), 2);
        assert!(cpu.latent.is_empty());
    }

    #[test]
    fn merge_respects_capacity() {
        let mut cpu = CpuSlot::default();
        let early = gp(0);
        for i in 0..5 {
            cpu.latent.push_back((obj(0x1000 + i * 8), early));
        }
        assert_eq!(cpu.merge_caches(early.raw_epoch() + 2, 3, |_| {}), 3);
        assert_eq!(cpu.obj_cache.len(), 3);
        assert_eq!(cpu.latent.len(), 2);
    }

    #[test]
    fn merge_stops_at_incomplete_front() {
        let mut cpu = CpuSlot::default();
        let early = gp(0);
        let later = gp(early.raw_epoch() + 4);
        cpu.latent.push_back((obj(0x1000), later)); // newer stamp in front
        cpu.latent.push_back((obj(0x2000), early));
        // Front not complete at early+2 even though the one behind is;
        // merge is conservative and stops.
        assert_eq!(cpu.merge_caches(early.raw_epoch() + 2, 10, |_| {}), 0);
    }

    #[test]
    fn merge_reports_merged_objects() {
        let mut cpu = CpuSlot::default();
        let early = gp(0);
        cpu.latent.push_back((obj(0x1000), early));
        cpu.latent.push_back((obj(0x2000), early));
        let mut merged = Vec::new();
        cpu.merge_caches(early.raw_epoch() + 2, 10, |o| merged.push(o.addr()));
        assert_eq!(merged, vec![0x1000, 0x2000]);
    }
}
