//! `hit_txn`: a pgbench-shaped transaction with no deferred frees.
//!
//! 24 × 64 B `allocate`, 3 × 1024 B `allocate` + `free`, then `free` of
//! all 24 in a drawn order — the working set stays inside the per-CPU
//! cache, so the `pbs-percpu` fast path does nearly all the work and the
//! grace-period machinery, the reclamation backends, the latent caches
//! and the site table stay idle. This is the bypass workload for any
//! change to the deferred path.

use std::sync::Arc;

use pbs_alloc_api::{CacheFactory, ObjPtr, ObjectAllocator};
use pbs_ledger::Check;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{alloc_retry, Bed, Probe, SpanName, Workload};

/// Small work objects per transaction (`pgbench.rs`: `K64_PER_TXN`).
const SMALL_PER_TXN: usize = 24;
/// Row/WAL buffers per transaction, freed on the spot.
const BUFFERS_PER_TXN: usize = 3;
/// Distinct free orders generated from the seed.
const ORDERS: usize = 16;

pub struct HitTxn {
    small: Arc<dyn ObjectAllocator>,
    buffers: Arc<dyn ObjectAllocator>,
    /// Free orders: permutations of `0..SMALL_PER_TXN`.
    orders: Vec<[u8; SMALL_PER_TXN]>,
    /// Per worker and operation: which free order to use.
    picks: Vec<Vec<u8>>,
}

impl Workload for HitTxn {
    const NAME: &'static str = "hit_txn";
    const SPANS_PER_OP: usize = 4;
    const RATE_HINT: [f64; 4] = [2.0e6, 2.0e6, 2.0e6, 2.0e6];
    type Local = Vec<ObjPtr>;

    fn build(bed: &Bed, seed: u64, threads: usize, ops_per_round: usize, _rounds: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let orders = (0..ORDERS)
            .map(|_| {
                let mut order: [u8; SMALL_PER_TXN] = std::array::from_fn(|i| i as u8);
                for i in (1..SMALL_PER_TXN).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                order
            })
            .collect();
        let picks = (0..threads as u64)
            .map(|tid| {
                let mut rng = StdRng::seed_from_u64(seed ^ ((tid + 1) << 32));
                (0..ops_per_round)
                    .map(|_| rng.gen_range(0..ORDERS as u8))
                    .collect()
            })
            .collect();
        Self {
            small: bed.create_cache("kmalloc-64", 64),
            buffers: bed.create_cache("kmalloc-1024", 1024),
            orders,
            picks,
        }
    }

    fn local(&self, _bed: &Bed, _tid: usize) -> Vec<ObjPtr> {
        Vec::with_capacity(SMALL_PER_TXN)
    }

    #[inline]
    fn op<P: Probe>(
        &self,
        work: &mut Vec<ObjPtr>,
        tid: usize,
        round: u64,
        i: usize,
        probe: &mut P,
    ) -> bool {
        work.clear();
        let mut ok = probe.span(SpanName::TxnAlloc, || {
            for k in 0..SMALL_PER_TXN {
                let Some(obj) = alloc_retry(self.small.as_ref()) else {
                    return false;
                };
                // SAFETY: fresh exclusive object of 64 bytes.
                unsafe { obj.as_ptr().cast::<u64>().write(round ^ (i + k) as u64) };
                work.push(obj);
            }
            true
        });
        ok &= probe.span(SpanName::TxnBuffers, || {
            for _ in 0..BUFFERS_PER_TXN {
                let Some(buf) = alloc_retry(self.buffers.as_ref()) else {
                    return false;
                };
                // SAFETY: fresh exclusive object of 1024 bytes, freed
                // exactly once, never published.
                unsafe {
                    std::ptr::write_bytes(buf.as_ptr(), 0x11, 1024);
                    self.buffers.free(buf);
                }
            }
            true
        });
        probe.span(SpanName::TxnFree, || {
            let order = &self.orders[usize::from(self.picks[tid][i])];
            if work.len() == SMALL_PER_TXN {
                for &k in order {
                    // SAFETY: each held object is freed exactly once (the
                    // order is a permutation) and was never published.
                    unsafe { self.small.free(work[usize::from(k)]) };
                }
            } else {
                for &obj in work.iter() {
                    // SAFETY: as above; the failed transaction frees what
                    // it got, each once.
                    unsafe { self.small.free(obj) };
                }
            }
        });
        ok
    }

    fn verify(&self, _bed: &Bed, executed: &[(u64, usize)]) -> Vec<Check> {
        let txns: u64 =
            executed.iter().map(|(_, n)| *n as u64).sum::<u64>() * self.picks.len() as u64;
        let (small, buffers) = (self.small.stats(), self.buffers.stats());
        vec![
            Check::eq(
                "small allocations counted",
                small.alloc_requests,
                txns * SMALL_PER_TXN as u64,
            ),
            Check::eq(
                "buffer allocations counted",
                buffers.alloc_requests,
                txns * BUFFERS_PER_TXN as u64,
            ),
            Check::eq(
                "every object freed on the spot",
                small.live_objects + buffers.live_objects,
                0,
            ),
            Check::eq(
                "no deferred frees",
                small.deferred_frees + buffers.deferred_frees,
                0,
            ),
        ]
    }
}
