//! `defer_churn`: the paper's Figure 6 loop.
//!
//! One `allocate` + write + `free_deferred` pair per operation, the cache
//! drawn per operation from {128 B, 1024 B} (the `BENCH_fig6.json`
//! sizes). Prudence's latent caches, `free_deferred`, call-site stamping
//! and the grace-period machinery do nearly all the work; the per-CPU
//! fast path, the structures and the subsystems do none.

use std::sync::Arc;

use pbs_alloc_api::{CacheFactory, ObjectAllocator};
use pbs_ledger::Check;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::harness::{alloc_retry, Bed, Probe, SpanName, Workload};

pub struct DeferChurn {
    small: Arc<dyn ObjectAllocator>,
    large: Arc<dyn ObjectAllocator>,
    /// Per worker, one bit per operation: draw the 1024 B cache.
    picks: Vec<Vec<u64>>,
}

impl Workload for DeferChurn {
    const NAME: &'static str = "defer_churn";
    const SPANS_PER_OP: usize = 3;
    const RATE_HINT: [f64; 4] = [2.5e6, 1.0e6, 2.7e6, 2.7e6];
    type Local = ();

    fn build(bed: &Bed, seed: u64, threads: usize, ops_per_round: usize, _rounds: usize) -> Self {
        let picks = (0..threads as u64)
            .map(|tid| {
                let mut rng = StdRng::seed_from_u64(seed ^ (tid << 32));
                (0..ops_per_round.div_ceil(64))
                    .map(|_| rng.next_u64())
                    .collect()
            })
            .collect();
        Self {
            small: bed.create_cache("kmalloc-128", 128),
            large: bed.create_cache("kmalloc-1024", 1024),
            picks,
        }
    }

    fn local(&self, _bed: &Bed, _tid: usize) {}

    #[inline]
    fn op<P: Probe>(
        &self,
        _local: &mut (),
        tid: usize,
        round: u64,
        i: usize,
        probe: &mut P,
    ) -> bool {
        let large = self.picks[tid][i / 64] >> (i % 64) & 1 == 1;
        let cache = if large { &self.large } else { &self.small };
        let Some(obj) = probe.span(SpanName::Alloc, || alloc_retry(cache.as_ref())) else {
            return false;
        };
        // SAFETY: a fresh, exclusively owned object of at least 128 bytes;
        // never published, so deferring it once is its only free.
        unsafe {
            obj.as_ptr().cast::<u64>().write(round ^ i as u64);
            probe.span(SpanName::FreeDeferred, || cache.free_deferred(obj));
        }
        true
    }

    fn verify(&self, _bed: &Bed, executed: &[(u64, usize)]) -> Vec<Check> {
        // Every pair allocates once and defers once; the allocator's own
        // counters must agree with the operations run.
        let ops: u64 =
            executed.iter().map(|(_, n)| *n as u64).sum::<u64>() * self.picks.len() as u64;
        let (small, large) = (self.small.stats(), self.large.stats());
        vec![
            Check::eq(
                "allocations counted",
                small.alloc_requests + large.alloc_requests,
                ops,
            ),
            Check::eq(
                "deferred frees counted",
                small.deferred_frees + large.deferred_frees,
                ops,
            ),
        ]
    }
}
