//! The skeleton every hardened (fault-injected, gating) run shares:
//! [`hardened_bed`] → run → [`audit_teardown`] → [`RunVerdict`].
//!
//! A gate every hardened run must pass goes in [`audit_teardown`]; one
//! only a scenario can judge is pushed onto `verdict.violations` by that
//! scenario after the audit.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pbs_alloc_api::engine::EngineConfig;
use pbs_alloc_api::CacheStatsSnapshot;
use pbs_fault::{site, FaultInjector};
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig, ReclaimStats};
use pbs_rcu::RcuConfig;

use crate::{AllocatorKind, Testbed};

/// Whether `backend` keeps reclaiming around a stalled reader. Decides a
/// hardened bed's reclaim tuning and which side of
/// [`garbage_contrast_gate`] a run is held to.
pub(crate) fn is_robust(backend: ReclaimBackend) -> bool {
    backend != ReclaimBackend::Epoch
}

/// A testbed for a gating run: `faults` threaded through every layer, one
/// `engine` tuning applied to whichever allocator `kind` selects, and the
/// reclamation backend (`None` honours `PBS_RECLAIM`) tuned so its garbage
/// bound is reachable in a sub-second run.
pub fn hardened_bed(
    kind: AllocatorKind,
    slots: usize,
    rcu_config: RcuConfig,
    limit_bytes: Option<usize>,
    faults: Option<Arc<FaultInjector>>,
    engine: Option<EngineConfig>,
    reclaim: Option<ReclaimBackend>,
) -> Testbed {
    let backend = reclaim.unwrap_or_else(ReclaimBackend::from_env);
    // Small batches, low scan thresholds and a short ejection fuse: a
    // chaos run lasts ~150 ms and a server storm well under a second, so
    // the bound must be reachable within a few milliseconds of stall.
    let reclaim_config = if is_robust(backend) {
        ReclaimConfig::aggressive()
    } else {
        ReclaimConfig::default()
    };
    Testbed::new_tuned(
        kind,
        slots,
        rcu_config,
        limit_bytes,
        faults,
        engine.clone(),
        engine,
        Some((backend, reclaim_config)),
    )
}

/// What every hardened run reports, whatever it ran: who ran, what the
/// teardown audit measured, and the gates that failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunVerdict {
    /// Allocator label.
    pub allocator: String,
    /// Reclamation backend label (`epoch`, `hp` or `hyaline`).
    pub reclaim_backend: String,
    /// The seed the run (and any replay) used.
    pub seed: u64,
    /// Worker / reactor panics (must be zero).
    pub panics: u64,
    /// Peak page-allocator usage during the run.
    pub peak_bytes: usize,
    /// The hard limit in force; `None` for uncapped runs.
    pub limit_bytes: Option<usize>,
    /// `deferred_outstanding` across caches after quiesce (must be zero).
    pub deferred_outstanding_end: usize,
    /// Page-allocator bytes still out after caches were dropped (must be
    /// zero — the baseline the run must return to).
    pub used_bytes_after_teardown: usize,
    /// Faults injected at the allocator's slab-grow site.
    pub injected_oom: u64,
    /// RCU stall-watchdog warnings raised during the run.
    pub stall_warnings: u64,
    /// Expedited grace-period requests (ladder stage 2 + backpressure).
    pub expedited_gps: u64,
    /// Grace-period advances that used the membarrier protocol.
    pub membarrier_advances: u64,
    /// Grace-period advances that used the fallback-fence protocol.
    pub fallback_fence_advances: u64,
    /// Stall-blame records captured during the run: who wedged
    /// reclamation, for how long.
    pub blame: Vec<pbs_rcu::BlameReport>,
    /// The shared reclamation domain's backend counters at the end of the
    /// run (scans, seals, captures, ejections, injected refusals).
    pub reclaim: ReclaimStats,
    /// Gate violations; empty on a passing run.
    pub violations: Vec<String>,
}

impl RunVerdict {
    /// Whether every gate held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The end of every hardened run: demand zero `panics`, quiesce every
/// cache in the bed's inventory, demand zero deferred objects outstanding
/// and zero live objects, drop `owners` (every cache and subsystem the run
/// built), demand every page back at the allocator and the limit never
/// exceeded. `violations` carries what the run already found; the audit's
/// findings are appended. Also returns the inventory's post-quiesce
/// statistics, keyed by cache name, for scenario gates that read them.
pub(crate) fn audit_teardown<Owners>(
    bed: &Testbed,
    faults: &FaultInjector,
    panics: u64,
    mut violations: Vec<String>,
    owners: Owners,
) -> (RunVerdict, BTreeMap<String, CacheStatsSnapshot>) {
    if panics != 0 {
        violations.push(format!("{panics} thread panics"));
    }
    bed.quiesce();
    let deferred_outstanding_end = bed.deferred_outstanding();
    if deferred_outstanding_end != 0 {
        violations.push(format!(
            "deferred_outstanding {deferred_outstanding_end} != 0 after quiesce"
        ));
    }
    let cache_stats = bed.cache_stats();
    violations.extend(
        cache_stats
            .iter()
            .filter(|(_, s)| s.live_objects != 0)
            .map(|(name, s)| format!("{name}: {} live objects after teardown", s.live_objects)),
    );

    let rcu_stats = bed.rcu().stats();
    let reclaim = bed.reclaim_stats();
    let blame = bed.rcu().blame_reports();
    let peak_bytes = bed.pages().peak_bytes();
    let limit_bytes = bed.pages().limit_bytes();

    // Baseline check: with every owner gone, every page must come home.
    drop(owners);
    let used_bytes_after_teardown = bed.pages().used_bytes();
    if used_bytes_after_teardown != 0 {
        violations.push(format!(
            "{used_bytes_after_teardown} bytes leaked after cache teardown"
        ));
    }
    if let Some(limit) = limit_bytes.filter(|&limit| peak_bytes > limit) {
        violations.push(format!(
            "hard limit exceeded: peak {peak_bytes} > limit {limit}"
        ));
    }

    let verdict = RunVerdict {
        allocator: bed.kind().label().to_owned(),
        reclaim_backend: bed.reclaim_backend().label().to_owned(),
        seed: faults.seed(),
        panics,
        peak_bytes,
        limit_bytes,
        deferred_outstanding_end,
        used_bytes_after_teardown,
        injected_oom: faults.injected(site::SLAB_GROW),
        stall_warnings: rcu_stats.stall_warnings,
        expedited_gps: rcu_stats.expedited_gps,
        membarrier_advances: rcu_stats.membarrier_advances,
        fallback_fence_advances: rcu_stats.fallback_fence_advances,
        blame,
        reclaim,
        violations,
    };
    (verdict, cache_stats)
}

/// The stalled-reader gate both harnesses share: with a reader parked,
/// robust backends must hold `observed` garbage at or below `bound`, and
/// — where the contrast is required — the epoch backend must exceed it,
/// or the unbounded-garbage failure mode the robust backends exist to
/// bound did not reproduce and the probe was inert. Returns the violation.
pub(crate) fn garbage_contrast_gate(
    backend: ReclaimBackend,
    observed: usize,
    bound: usize,
    require_epoch_contrast: bool,
) -> Option<String> {
    if is_robust(backend) {
        (observed > bound).then(|| {
            format!("{backend}: garbage reached {observed} with a reader parked, bound is {bound}")
        })
    } else {
        (require_epoch_contrast && observed <= bound).then(|| {
            format!(
                "{backend}: garbage held to {observed} with a reader parked (bound {bound}) \
                 — the stalled-reader contrast went missing"
            )
        })
    }
}

/// Joins one of a run's threads: what it returned, or `None`, counted in
/// `panics`, if it panicked.
pub(crate) fn join<T>(handle: ScopedJoinHandle<'_, T>, panics: &mut u64) -> Option<T> {
    handle.join().map_err(|_| *panics += 1).ok()
}

/// Runs its closure when dropped, on unwind as on return: the one place a
/// run raises the stop signal its helper threads poll, so a panicking
/// driver releases them instead of hanging the scope that joins them.
pub(crate) struct StopOnDrop<F: Fn()>(pub(crate) F);

impl<F: Fn()> Drop for StopOnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Runs `worker(tid)` on `threads` scoped threads; returns the sum of what
/// they returned and the wall-clock time from first spawn to last join.
///
/// # Panics
///
/// Panics if a worker panicked.
pub(crate) fn run_workers(
    threads: usize,
    worker: impl Fn(usize) -> u64 + Sync,
) -> (u64, Duration) {
    let start = Instant::now();
    let total = std::thread::scope(|s| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads).map(|tid| s.spawn(move || worker(tid))).collect();
        handles.into_iter().map(|h| h.join().expect("worker thread")).sum()
    });
    (total, start.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::{AllocError, ObjPtr, ObjectAllocator};
    use pbs_rcu::Rcu;

    /// A cache whose quiesce drains nothing: one deferred object stays
    /// outstanding whatever the audit does.
    struct Undrained(Arc<Rcu>);

    impl ObjectAllocator for Undrained {
        fn allocate(&self) -> Result<ObjPtr, AllocError> {
            Err(AllocError::OutOfMemory)
        }
        unsafe fn free(&self, _: ObjPtr) {}
        unsafe fn free_deferred(&self, _: ObjPtr) {}
        fn object_size(&self) -> usize {
            64
        }
        fn name(&self) -> &str {
            "undrained"
        }
        fn rcu(&self) -> &Arc<Rcu> {
            &self.0
        }
        fn stats(&self) -> CacheStatsSnapshot {
            CacheStatsSnapshot::default()
        }
        fn quiesce(&self) {}
        fn deferred_outstanding(&self) -> usize {
            1
        }
    }

    fn bed_with_faults(kind: AllocatorKind) -> (Testbed, Arc<FaultInjector>) {
        let faults = Arc::new(FaultInjector::new(41));
        // Epoch named, not read from `PBS_RECLAIM`, so the verdict's
        // backend label is known.
        let bed = hardened_bed(
            kind,
            2,
            RcuConfig::eager(),
            Some(1 << 24),
            Some(Arc::clone(&faults)),
            None,
            Some(ReclaimBackend::Epoch),
        );
        (bed, faults)
    }

    #[test]
    fn audit_reports_exactly_what_a_run_left_behind() {
        for kind in AllocatorKind::BOTH {
            let (bed, faults) = bed_with_faults(kind);
            let leaky = bed.create_cache("leaky", 64);
            let _never_freed = leaky.allocate().unwrap();
            // A handle the run forgot to drop keeps the slab's pages out.
            let forgotten = Arc::clone(&leaky);
            let undrained = bed.factory().record(Arc::new(Undrained(Arc::clone(bed.rcu()))));
            let (verdict, stats) =
                audit_teardown(&bed, &faults, 2, Vec::new(), (leaky, undrained));
            let used = verdict.used_bytes_after_teardown;
            assert_ne!(used, 0, "{kind}");
            assert_eq!(
                verdict.violations,
                [
                    "2 thread panics".to_owned(),
                    "deferred_outstanding 1 != 0 after quiesce".to_owned(),
                    "leaky: 1 live objects after teardown".to_owned(),
                    format!("{used} bytes leaked after cache teardown"),
                ],
                "{kind}"
            );
            assert_eq!(verdict.deferred_outstanding_end, 1);
            assert_eq!((verdict.seed, verdict.panics), (41, 2));
            assert_eq!(verdict.limit_bytes, Some(1 << 24));
            assert_eq!(stats.len(), 2);
            drop(forgotten);
        }
    }

    #[test]
    fn audit_is_silent_on_a_clean_bed() {
        for kind in AllocatorKind::BOTH {
            let (bed, faults) = bed_with_faults(kind);
            let cache = bed.create_cache("clean", 128);
            let objs: Vec<_> = (0..100).map(|_| cache.allocate().unwrap()).collect();
            for (i, obj) in objs.into_iter().enumerate() {
                // SAFETY: each object is freed exactly once.
                unsafe {
                    if i % 2 == 0 {
                        cache.free_deferred(obj);
                    } else {
                        cache.free(obj);
                    }
                }
            }
            let early = vec!["found during the run".to_owned()];
            let (verdict, _) = audit_teardown(&bed, &faults, 0, early.clone(), cache);
            assert_eq!(verdict.violations, early, "{kind}: the audit only appends");
            assert_eq!(verdict.deferred_outstanding_end, 0);
            assert_eq!(verdict.used_bytes_after_teardown, 0);
            assert!(verdict.peak_bytes > 0);
            assert_eq!(verdict.allocator, kind.label());
            assert_eq!(verdict.reclaim_backend, "epoch");
        }
    }

    #[test]
    fn garbage_contrast_gate_truth_table() {
        use ReclaimBackend::{Epoch, Hp, Hyaline};
        let over = "hp: garbage reached 300 with a reader parked, bound is 256";
        let inert = "epoch: garbage held to 256 with a reader parked (bound 256) \
                     — the stalled-reader contrast went missing";
        for (backend, observed, require, want) in [
            (Hp, 300, true, Some(over)),
            (Hp, 300, false, Some(over)),
            (Hyaline, 256, true, None),
            (Epoch, 256, true, Some(inert)),
            (Epoch, 256, false, None),
            (Epoch, 300, true, None),
        ] {
            assert_eq!(
                garbage_contrast_gate(backend, observed, 256, require).as_deref(),
                want,
                "{backend} observed={observed} require={require}"
            );
        }
    }
}
