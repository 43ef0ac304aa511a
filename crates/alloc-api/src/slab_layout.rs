//! Raw slab representation shared by both allocators.
//!
//! A slab is one power-of-two-sized, equally-aligned [`PageBlock`] carved
//! into equal objects after a small in-slab header. Because size equals
//! alignment, masking any object address recovers the slab base — the
//! userspace analog of the kernel's page→slab mapping — and the header
//! stores the slab's index in its cache's slab table.
//!
//! All mutation of a `RawSlab` (and all header invalidation) happens under
//! the owning cache's node lock; the header itself is written once at
//! creation.

use std::ptr::NonNull;

use pbs_mem::PageBlock;

use crate::sizing::{SizingPolicy, SLAB_HEADER_RESERVE};
use crate::traits::ObjPtr;

const SLAB_MAGIC: u64 = 0x5052_5544_454e_4345; // "PRUDENCE"

/// The header written at the base of every slab.
#[repr(C)]
struct SlabHeader {
    magic: u64,
    slab_index: u64,
}

/// Reads the slab index for an object pointer by masking to the slab base.
///
/// # Safety
///
/// `obj` must point into a live slab of a cache whose policy has exactly
/// `slab_bytes` bytes per slab. The caller must hold the owning cache's
/// node lock (headers are invalidated under it).
pub unsafe fn resolve_slab_index(obj: ObjPtr, slab_bytes: usize) -> usize {
    debug_assert!(slab_bytes.is_power_of_two());
    let base = obj.addr() & !(slab_bytes - 1);
    let header = base as *const SlabHeader;
    debug_assert_eq!((*header).magic, SLAB_MAGIC, "bad slab magic");
    (*header).slab_index as usize
}

/// One slab: an owned page block plus free-list bookkeeping.
///
/// Invariants:
/// * `free.len() + allocated == policy.objects_per_slab` where `allocated`
///   counts objects currently outside the free list (live, cached in a CPU
///   cache, or deferred),
/// * every index in `free` is unique and `< objects_per_slab`.
#[derive(Debug)]
pub struct RawSlab {
    block: PageBlock,
    object_size: usize,
    objects: u16,
    objects_base: usize,
    free: Vec<u16>,
    allocated: u16,
}

impl RawSlab {
    /// Carves a new slab out of `block` and stamps its header.
    ///
    /// `color` cycles the object-area start offset across slabs to spread
    /// hardware cache-set pressure (Bonwick's slab coloring, reused by
    /// Prudence per paper §4.3).
    ///
    /// # Panics
    ///
    /// Panics if `block` is smaller than the policy's slab size or
    /// misaligned.
    pub fn new(block: PageBlock, policy: &SizingPolicy, slab_index: usize, color: usize) -> Self {
        assert!(block.len() >= policy.slab_bytes);
        assert_eq!(block.base().as_ptr() as usize % policy.slab_bytes, 0);
        let spare = policy.slab_bytes - SLAB_HEADER_RESERVE - policy.payload_bytes();
        let color_offset = ((color % policy.colors) * 64).min(spare) & !7;
        let objects_base = block.base().as_ptr() as usize + SLAB_HEADER_RESERVE + color_offset;
        // SAFETY: the block is exclusively owned and large enough for the
        // header.
        unsafe {
            let header = block.base().as_ptr() as *mut SlabHeader;
            header.write(SlabHeader {
                magic: SLAB_MAGIC,
                slab_index: slab_index as u64,
            });
        }
        let objects = policy.objects_per_slab as u16;
        Self {
            block,
            object_size: policy.object_size,
            objects,
            objects_base,
            // LIFO free list: freshly-freed objects are reallocated first.
            free: (0..objects).rev().collect(),
            allocated: 0,
        }
    }

    /// Total objects in the slab.
    pub fn capacity(&self) -> usize {
        self.objects as usize
    }

    /// Objects currently on the free list.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Objects currently outside the free list.
    pub fn allocated_count(&self) -> usize {
        self.allocated as usize
    }

    /// Whether every object is out (candidate for the full list).
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Whether every object is on the free list (candidate for release).
    pub fn is_free(&self) -> bool {
        self.allocated == 0
    }

    /// Pointer to object `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn object_ptr(&self, index: u16) -> ObjPtr {
        assert!(index < self.objects, "object index out of range");
        let addr = self.objects_base + index as usize * self.object_size;
        // SAFETY: objects_base is non-null and offsets stay in the block.
        ObjPtr::new(unsafe { NonNull::new_unchecked(addr as *mut u8) })
    }

    /// Index of an object pointer within this slab.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the pointer does not address an object
    /// boundary of this slab.
    pub fn index_of(&self, obj: ObjPtr) -> u16 {
        let off = obj.addr().wrapping_sub(self.objects_base);
        debug_assert_eq!(off % self.object_size, 0, "pointer not on object boundary");
        let idx = off / self.object_size;
        debug_assert!(idx < self.objects as usize, "pointer outside slab");
        idx as u16
    }

    /// Pops up to `n` objects off the free list (for object-cache refill).
    pub fn take(&mut self, n: usize, out: &mut Vec<ObjPtr>) -> usize {
        let take = n.min(self.free.len());
        for _ in 0..take {
            let idx = self.free.pop().expect("free list non-empty");
            out.push(self.object_ptr(idx));
        }
        self.allocated += take as u16;
        take
    }

    /// Returns one object to the free list (object-cache flush).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on double-free of the same index.
    pub fn give_back(&mut self, obj: ObjPtr) {
        let idx = self.index_of(obj);
        self.give_back_index(idx);
    }

    /// Returns object `index` to the free list.
    pub fn give_back_index(&mut self, index: u16) {
        debug_assert!(!self.free.contains(&index), "double free of object {index}");
        debug_assert!(self.allocated > 0);
        self.free.push(index);
        self.allocated -= 1;
    }

    /// Consumes the slab and returns its page block for release.
    pub fn into_block(self) -> PageBlock {
        self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_mem::PageAllocator;

    fn mk(policy: &SizingPolicy, index: usize) -> (RawSlab, PageAllocator) {
        let pages = PageAllocator::new();
        let block = pages
            .allocate_aligned(policy.slab_bytes, policy.slab_bytes)
            .unwrap();
        (RawSlab::new(block, policy, index, 0), pages)
    }

    #[test]
    fn carve_take_give_back_roundtrip() {
        let policy = SizingPolicy::for_object_size(64);
        let (mut slab, pages) = mk(&policy, 7);
        assert_eq!(slab.free_count(), policy.objects_per_slab);
        let mut objs = Vec::new();
        let took = slab.take(5, &mut objs);
        assert_eq!(took, 5);
        assert_eq!(slab.allocated_count(), 5);
        for &o in &objs {
            // SAFETY: `o` was just taken from `slab`, a live slab of
            // `policy.slab_bytes` bytes that only this test touches, so no
            // node lock is needed.
            assert_eq!(unsafe { resolve_slab_index(o, policy.slab_bytes) }, 7);
            assert_eq!(slab.object_ptr(slab.index_of(o)), o);
        }
        for o in objs {
            slab.give_back(o);
        }
        assert!(slab.is_free());
        pages.free_pages(slab.into_block());
    }

    #[test]
    fn objects_do_not_overlap_and_stay_in_bounds() {
        for size in [8, 24, 192, 1024, 4096] {
            let policy = SizingPolicy::for_object_size(size);
            let (mut slab, pages) = mk(&policy, 0);
            let mut objs = Vec::new();
            slab.take(policy.objects_per_slab, &mut objs);
            assert!(slab.is_full());
            let base = objs[0].addr() & !(policy.slab_bytes - 1);
            let mut addrs: Vec<usize> = objs.iter().map(|o| o.addr()).collect();
            addrs.sort_unstable();
            for pair in addrs.windows(2) {
                assert!(pair[1] - pair[0] >= policy.object_size);
            }
            let last = *addrs.last().unwrap();
            assert!(last + policy.object_size <= base + policy.slab_bytes);
            assert!(addrs[0] >= base + SLAB_HEADER_RESERVE);
            for o in objs {
                slab.give_back(o);
            }
            pages.free_pages(slab.into_block());
        }
    }

    #[test]
    fn coloring_offsets_differ_but_stay_valid() {
        let policy = SizingPolicy::for_object_size(100);
        let pages = PageAllocator::new();
        let mut bases = Vec::new();
        let mut slabs = Vec::new();
        for color in 0..4 {
            let block = pages
                .allocate_aligned(policy.slab_bytes, policy.slab_bytes)
                .unwrap();
            let mut slab = RawSlab::new(block, &policy, color, color);
            let mut objs = Vec::new();
            slab.take(1, &mut objs);
            bases.push(objs[0].addr() & (policy.slab_bytes - 1));
            slab.give_back(objs[0]);
            slabs.push(slab);
        }
        // At least two distinct coloring offsets (unless no spare space).
        let spare = policy.slab_bytes - SLAB_HEADER_RESERVE - policy.payload_bytes();
        if spare >= 64 {
            assert!(bases.iter().any(|&b| b != bases[0]), "offsets: {bases:?}");
        }
        for slab in slabs {
            pages.free_pages(slab.into_block());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_detected_in_debug() {
        let policy = SizingPolicy::for_object_size(64);
        let (mut slab, _pages) = mk(&policy, 0);
        let mut objs = Vec::new();
        slab.take(1, &mut objs);
        slab.give_back(objs[0]);
        slab.give_back(objs[0]);
    }

    #[test]
    fn lifo_reuse_order() {
        let policy = SizingPolicy::for_object_size(64);
        let (mut slab, pages) = mk(&policy, 0);
        let mut objs = Vec::new();
        slab.take(2, &mut objs);
        let first = objs[0];
        slab.give_back(first);
        let mut again = Vec::new();
        slab.take(1, &mut again);
        assert_eq!(again[0], first, "most recently freed object reused first");
        slab.give_back(again[0]);
        slab.give_back(objs[1]);
        pages.free_pages(slab.into_block());
    }
}
