//! The shared experiment environment.

use std::collections::BTreeMap;
use std::sync::Arc;

use pbs_alloc_api::engine::EngineConfig;
use pbs_alloc_api::{
    CacheFactory, CacheInventory, CacheStatsSnapshot, ObjectAllocator, TelemetrySnapshot,
};
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{
    domain_for, ReclaimBackend, ReclaimConfig, ReclaimStats, ReclamationDomain,
};
use pbs_rcu::{Rcu, RcuConfig};
use pbs_slub::SlubFactory;
use prudence::PrudenceFactory;

/// Which allocator design a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// The SLUB-style baseline with RCU-callback deferred frees.
    Slub,
    /// The Prudence allocator (latent caches/slabs).
    Prudence,
}

impl AllocatorKind {
    /// Both designs, baseline first (the order figures are reported in).
    pub const BOTH: [AllocatorKind; 2] = [AllocatorKind::Slub, AllocatorKind::Prudence];

    /// Report label.
    pub fn label(&self) -> &'static str {
        match self {
            AllocatorKind::Slub => "slub",
            AllocatorKind::Prudence => "prudence",
        }
    }

    /// Parses a command-line allocator selection: `slub`, `prudence` or
    /// `both`.
    pub fn selection(s: &str) -> Result<Vec<AllocatorKind>, String> {
        match s {
            "both" => Ok(Self::BOTH.to_vec()),
            "slub" => Ok(vec![Self::Slub]),
            "prudence" => Ok(vec![Self::Prudence]),
            other => Err(format!(
                "unknown allocator {other:?} (expected slub, prudence or both)"
            )),
        }
    }
}

impl std::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One experiment environment: a page allocator (optionally limited), an
/// RCU domain, and a cache factory for the chosen allocator design that
/// records every cache it mints — the run's one cache inventory, whoever
/// minted through it.
///
/// # Example
///
/// ```
/// use pbs_workloads::{AllocatorKind, Testbed};
///
/// let bed = Testbed::new(AllocatorKind::Prudence, 2, pbs_rcu::RcuConfig::eager(), None);
/// let cache = bed.create_cache("t", 64);
/// let obj = cache.allocate()?;
/// unsafe { cache.free(obj) };
/// # Ok::<(), pbs_alloc_api::AllocError>(())
/// ```
pub struct Testbed {
    kind: AllocatorKind,
    pages: Arc<PageAllocator>,
    rcu: Arc<Rcu>,
    /// The reclamation domain every cache of this testbed shares —
    /// `PBS_RECLAIM` (or an explicit override) decides the backend.
    domain: Arc<dyn ReclamationDomain>,
    factory: CacheInventory,
}

impl std::fmt::Debug for Testbed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Testbed").field("kind", &self.kind).finish()
    }
}

impl Testbed {
    /// Builds a testbed with `ncpus` CPU slots, the given RCU throttling
    /// parameters and an optional hard memory limit in bytes.
    pub fn new(
        kind: AllocatorKind,
        ncpus: usize,
        rcu_config: RcuConfig,
        limit_bytes: Option<usize>,
    ) -> Self {
        Self::new_tuned(kind, ncpus, rcu_config, limit_bytes, None, None, None, None)
    }

    /// [`new`](Self::new) plus a fault injector threaded through the whole
    /// stack — the page allocator consults it on every block allocation and
    /// the RCU domain on every grace-period-advance attempt, so one seeded
    /// plan drives OOM and stall faults across every layer of the run — and
    /// per-allocator engine settings: `slub` overrides the baseline's
    /// watermarks and recovery-ladder depth (the endurance experiment pins
    /// `oom_retries: 0` to reproduce the paper's unhardened baseline), and
    /// `prudence` does the same for Prudence (either way `ncpus` is forced
    /// to match). Each override applies only to its own allocator kind;
    /// `None` keeps the defaults.
    ///
    /// `reclaim` overrides the reclamation backend and its tuning;
    /// `None` falls back to `PBS_RECLAIM` (default: `epoch`, the paper's
    /// scheme) with default tuning — so the whole harness fleet switches
    /// backend via one environment variable, mirroring `PBS_FASTPATH`.
    /// Gating runs build theirs through [`hardened_bed`](crate::hardened_bed).
    #[allow(clippy::too_many_arguments)]
    pub fn new_tuned(
        kind: AllocatorKind,
        ncpus: usize,
        mut rcu_config: RcuConfig,
        limit_bytes: Option<usize>,
        faults: Option<Arc<pbs_fault::FaultInjector>>,
        slub: Option<EngineConfig>,
        prudence: Option<EngineConfig>,
        reclaim: Option<(ReclaimBackend, ReclaimConfig)>,
    ) -> Self {
        let mut builder = PageAllocator::builder();
        if let Some(limit) = limit_bytes {
            builder = builder.limit_bytes(limit);
        }
        if let Some(faults) = &faults {
            builder = builder.fault_injector(Arc::clone(faults));
            if rcu_config.fault_injector.is_none() {
                rcu_config = rcu_config.with_fault_injector(Arc::clone(faults));
            }
        }
        let pages = Arc::new(builder.build());
        // As in the kernel, RCU reacts to memory pressure by expediting
        // callback processing (§3.5); wire the page allocator's pressure
        // signal in whenever a memory limit exists.
        if rcu_config.pressure_probe.is_none() && limit_bytes.is_some() {
            let probe_pages = Arc::clone(&pages);
            rcu_config = rcu_config
                .with_pressure_probe(Arc::new(move || probe_pages.pressure()));
        }
        let rcu = Arc::new(Rcu::with_config(rcu_config));
        let (backend, reclaim_config) =
            reclaim.unwrap_or_else(|| (ReclaimBackend::from_env(), ReclaimConfig::default()));
        let domain = domain_for(Arc::clone(&rcu), backend, reclaim_config);
        let factory = match kind {
            AllocatorKind::Slub => CacheInventory::new(SlubFactory::with_domain(
                EngineConfig {
                    ncpus,
                    ..slub.unwrap_or_default()
                },
                Arc::clone(&pages),
                Arc::clone(&domain),
            )),
            AllocatorKind::Prudence => CacheInventory::new(PrudenceFactory::with_domain(
                EngineConfig {
                    ncpus,
                    ..prudence.unwrap_or_default()
                },
                Arc::clone(&pages),
                Arc::clone(&domain),
            )),
        };
        Self {
            kind,
            pages,
            rcu,
            domain,
            factory,
        }
    }

    /// Which allocator design this testbed runs.
    pub fn kind(&self) -> AllocatorKind {
        self.kind
    }

    /// The shared page allocator (for memory sampling and limits).
    pub fn pages(&self) -> &Arc<PageAllocator> {
        &self.pages
    }

    /// The shared RCU domain.
    pub fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }

    /// The shared reclamation domain every cache of this testbed routes
    /// deferred frees through.
    pub fn reclaim_domain(&self) -> &Arc<dyn ReclamationDomain> {
        &self.domain
    }

    /// The reclamation backend in effect.
    pub fn reclaim_backend(&self) -> ReclaimBackend {
        self.domain.backend()
    }

    /// Snapshot of the shared domain's backend statistics.
    pub fn reclaim_stats(&self) -> ReclaimStats {
        self.domain.reclaim_stats()
    }

    /// The cache factory for subsystem construction; every cache it
    /// mints joins this testbed's inventory.
    pub fn factory(&self) -> &CacheInventory {
        &self.factory
    }

    /// Convenience: creates one named cache.
    pub fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        self.factory.create_cache(name, object_size)
    }

    /// Drains what every live cache of this testbed deferred before the
    /// call.
    pub fn quiesce(&self) {
        self.factory.quiesce();
    }

    /// Deferred objects not yet reusable, over every live cache.
    pub fn deferred_outstanding(&self) -> usize {
        self.factory.deferred_outstanding()
    }

    /// Every live cache's statistics, keyed by name (same-named caches
    /// merge).
    pub fn cache_stats(&self) -> BTreeMap<String, CacheStatsSnapshot> {
        self.factory.stats()
    }

    /// Captures a full telemetry snapshot of the run so far: the RCU
    /// domain's counters, histograms and grace-period events, plus the
    /// stats, histograms and events of every still-live cache minted
    /// through this testbed, directly or by a subsystem.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new(self.rcu.stats(), self.rcu.telemetry());
        for cache in self.factory.caches() {
            snap.push_cache(cache.as_ref());
        }
        snap.reclaim = self.domain.reclaim_stats();
        snap.blame = self.rcu.blame_reports();
        snap.sites = pbs_telemetry::site::report();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_both_kinds() {
        for kind in AllocatorKind::BOTH {
            let bed = Testbed::new(kind, 2, RcuConfig::eager(), Some(1 << 24));
            let cache = bed.create_cache("x", 128);
            let o = cache.allocate().unwrap();
            unsafe { cache.free_deferred(o) };
            cache.quiesce();
            assert_eq!(cache.stats().deferred_frees, 1);
            assert_eq!(bed.kind(), kind);
        }
    }

    #[test]
    fn inventory_lists_the_caches_a_subsystem_mints() {
        for kind in AllocatorKind::BOTH {
            let bed = Testbed::new(kind, 2, RcuConfig::eager(), None);
            let fs = pbs_simfs::SimFs::new(bed.factory());
            let ino = fs.create(1, 1).unwrap();
            let fd = fs.open(ino).unwrap();
            fs.append(fd, 100).unwrap();
            fs.close(fd).unwrap();
            fs.unlink(1, 1).unwrap();
            bed.quiesce();
            assert_eq!(bed.deferred_outstanding(), 0, "{kind}");
            let snap = bed.telemetry();
            let stats = bed.cache_stats();
            for name in ["ext4_inode", "dentry", "filp", "selinux", "fsbuf"] {
                assert!(snap.cache(name).is_some(), "{kind}: telemetry lacks {name}");
                let deferred = u64::from(name != "fsbuf");
                assert_eq!(stats[name].deferred_frees, deferred, "{kind}: {name}");
            }
            assert!(stats["fsbuf"].frees > 0, "{kind}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(AllocatorKind::Slub.label(), "slub");
        assert_eq!(AllocatorKind::Prudence.to_string(), "prudence");
    }
}
