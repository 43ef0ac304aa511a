//! Figure 6: kmalloc/kfree_deferred pairs per second by object size.
//!
//! The paper runs `kmalloc()/kfree_deferred()` in a tight loop on all CPUs
//! for object sizes up to 4096 bytes and reports pairs per second. The
//! baseline allocator suffers because deferred objects are reclaimed by
//! throttled background callbacks: the allocator keeps refilling and
//! growing while freed memory sits in the callback backlog. When the page
//! allocator's budget is exhausted, the baseline stalls until reclaim
//! catches up — the userspace analog of kernel direct reclaim. Prudence
//! reaches a steady state where allocations are served from merged latent
//! objects.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use pbs_alloc_api::{AllocError, ObjectAllocator};
use pbs_rcu::RcuConfig;

use crate::harness::run_workers;
use crate::{AllocatorKind, Testbed};

/// Parameters for a microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicrobenchParams {
    /// Worker threads (the paper uses all CPUs).
    pub threads: usize,
    /// kmalloc/kfree_deferred pairs per thread (5 million in the paper).
    pub pairs_per_thread: u64,
    /// Hard memory budget, bounding the baseline's deferred backlog.
    pub memory_limit: usize,
}

impl Default for MicrobenchParams {
    fn default() -> Self {
        Self {
            threads: num_threads(),
            pairs_per_thread: 200_000,
            memory_limit: 256 << 20,
        }
    }
}

/// A sensible default worker count for the current machine.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// One (object size, allocator) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MicrobenchPoint {
    /// Object size in bytes.
    pub object_size: usize,
    /// Pairs of kmalloc/kfree_deferred per second, all threads combined.
    pub pairs_per_sec: f64,
    /// Allocator attributes for the run (churns, peaks, hits).
    pub stats: pbs_alloc_api::CacheStatsSnapshot,
    /// Full telemetry capture of the run (RCU domain + cache), taken
    /// after quiesce so every trace event is included.
    pub telemetry: pbs_alloc_api::TelemetrySnapshot,
}

/// Runs the tight loop for one allocator and one object size.
pub fn run_microbench(
    kind: AllocatorKind,
    object_size: usize,
    params: &MicrobenchParams,
) -> MicrobenchPoint {
    // Linux-like callback throttling: blimit-sized batches with softirq
    // pacing. This is precisely the baseline behaviour the paper measures
    // against; Prudence never touches the callback path.
    let bed = Testbed::new(
        kind,
        params.threads,
        RcuConfig::linux_like(),
        Some(params.memory_limit),
    );
    run_on(&bed, object_size, params)
}

/// [`run_microbench`] on a testbed the caller built.
fn run_on(bed: &Testbed, object_size: usize, params: &MicrobenchParams) -> MicrobenchPoint {
    let cache = bed.create_cache(&format!("kmalloc-{object_size}"), object_size);
    let (total_pairs, elapsed) = run_workers(params.threads, |_| {
        for _ in 0..params.pairs_per_thread {
            let obj = alloc_with_reclaim_stall(cache.as_ref());
            // Touch the object the way real writers initialize the new
            // version before publishing it.
            // SAFETY: fresh exclusive object.
            unsafe {
                obj.as_ptr().cast::<u64>().write(0xC0FFEE);
                cache.free_deferred(obj);
            }
        }
        params.pairs_per_thread
    });
    let stats = cache.stats();
    cache.quiesce();
    let telemetry = bed.telemetry();
    MicrobenchPoint {
        object_size,
        pairs_per_sec: total_pairs as f64 / elapsed.as_secs_f64(),
        stats,
        telemetry,
    }
}

/// Allocates, stalling on OOM the way kernel allocations enter direct
/// reclaim: back off briefly and retry while background reclamation
/// catches up. (Prudence rarely hits this path: its OOM deferral reclaims
/// latent objects internally.)
fn alloc_with_reclaim_stall(cache: &dyn ObjectAllocator) -> pbs_alloc_api::ObjPtr {
    let mut backoff = 1u64;
    loop {
        match cache.allocate() {
            Ok(obj) => return obj,
            Err(AllocError::OutOfMemory) => {
                std::thread::sleep(Duration::from_micros(backoff.min(200)));
                backoff = backoff.saturating_mul(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig};

    fn small() -> MicrobenchParams {
        MicrobenchParams {
            threads: 2,
            pairs_per_thread: 3_000,
            memory_limit: 64 << 20,
        }
    }

    #[test]
    fn prudence_completes_and_reports_rate() {
        let p = run_microbench(AllocatorKind::Prudence, 512, &small());
        assert!(p.pairs_per_sec > 0.0);
        assert_eq!(p.object_size, 512);
    }

    #[test]
    fn slub_completes_within_memory_limit() {
        let p = run_microbench(AllocatorKind::Slub, 512, &small());
        assert!(p.pairs_per_sec > 0.0);
    }

    #[test]
    fn prudence_improves_allocator_attributes() {
        // Timing is the ledger's business (`defer_churn`); in unit tests
        // we assert the robust allocator-attribute wins the paper
        // reports in Figures 9-10: Prudence needs fewer slab grows and a
        // lower peak slab count because deferred objects stay reusable.
        // That is the latent mechanism's claim, and it runs only under the
        // epoch domain: both testbeds are pinned to it, whatever
        // PBS_RECLAIM says.
        let params = MicrobenchParams {
            threads: 2,
            pairs_per_thread: 20_000,
            memory_limit: 32 << 20,
        };
        let on_epoch = |kind| {
            let bed = Testbed::new_tuned(
                kind,
                params.threads,
                RcuConfig::linux_like(),
                Some(params.memory_limit),
                None,
                None,
                None,
                Some((ReclaimBackend::Epoch, ReclaimConfig::default())),
            );
            run_on(&bed, 1024, &params)
        };
        let slub = on_epoch(AllocatorKind::Slub);
        let prudence = on_epoch(AllocatorKind::Prudence);
        assert!(
            prudence.stats.grows < slub.stats.grows,
            "prudence grows {} !< slub grows {}",
            prudence.stats.grows,
            slub.stats.grows
        );
        assert!(
            prudence.stats.slabs_peak < slub.stats.slabs_peak,
            "prudence peak {} !< slub peak {}",
            prudence.stats.slabs_peak,
            slub.stats.slabs_peak
        );
    }
}
