//! Unified telemetry exposition: one serializable snapshot combining the
//! RCU domain's stats, its grace-period event trace, and every cache's
//! counters, histograms and events.
//!
//! The snapshot is pure data (serde-serializable, no atomics), so
//! exporters — Prometheus text, chrome://tracing JSON — live downstream in
//! `pbs-workloads` and render it without touching live allocator state.

use pbs_rcu::reclaim::ReclaimStats;
use pbs_rcu::{BlameReport, RcuStats};
use pbs_telemetry::site::SiteReport;
use pbs_telemetry::ComponentTelemetry;
use serde::{Deserialize, Serialize};

use crate::stats::CacheStatsSnapshot;
use crate::traits::ObjectAllocator;

/// Telemetry for a single slab cache: its counter snapshot plus latency
/// histograms and trace events.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CacheTelemetry {
    /// Cache name as reported by [`ObjectAllocator::name`].
    pub name: String,
    /// Counter snapshot (Figures 7–11 inputs).
    pub stats: CacheStatsSnapshot,
    /// Histograms (`slot_wait_ns`, `defer_delay_ns`) and trace events.
    pub telemetry: ComponentTelemetry,
}

impl CacheTelemetry {
    /// Captures a cache's telemetry through the [`ObjectAllocator`] trait.
    pub fn capture(alloc: &dyn ObjectAllocator) -> Self {
        Self {
            name: alloc.name().to_string(),
            stats: alloc.stats(),
            telemetry: alloc.telemetry(),
        }
    }
}

/// A full telemetry capture: the RCU domain plus any number of caches.
///
/// Snapshots from different runs (or different caches of the same run)
/// can be folded together with [`TelemetrySnapshot::merge`]; exporters
/// consume the merged result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// RCU domain counters (grace periods, callbacks, barrier paths).
    pub rcu: RcuStats,
    /// RCU histogram (`gp_latency_ns`) and grace-period trace events.
    pub rcu_telemetry: ComponentTelemetry,
    /// Per-cache telemetry, one entry per cache name.
    pub caches: Vec<CacheTelemetry>,
    /// Reclamation-backend counters of the domain the caches route
    /// deferred frees through (scan/seal/eject activity).
    pub reclaim: ReclaimStats,
    /// Stall-blame records: who wedged reclamation, for how long,
    /// history plus any still-open episode last.
    pub blame: Vec<BlameReport>,
    /// Per-call-site garbage attribution.
    pub sites: SiteReport,
}

impl TelemetrySnapshot {
    /// Builds a snapshot from the RCU domain's views, with no caches yet.
    pub fn new(rcu: RcuStats, rcu_telemetry: ComponentTelemetry) -> Self {
        Self {
            rcu,
            rcu_telemetry,
            caches: Vec::new(),
            reclaim: ReclaimStats::default(),
            blame: Vec::new(),
            sites: SiteReport::default(),
        }
    }

    /// Captures one cache. A cache whose name is already present folds
    /// into that entry, as [`merge`](Self::merge) folds caches.
    pub fn push_cache(&mut self, alloc: &dyn ObjectAllocator) {
        self.fold_cache(CacheTelemetry::capture(alloc));
    }

    fn fold_cache(&mut self, cache: CacheTelemetry) {
        match self.caches.iter_mut().find(|c| c.name == cache.name) {
            Some(mine) => {
                mine.stats.merge(&cache.stats);
                mine.telemetry.merge(&cache.telemetry);
            }
            None => self.caches.push(cache),
        }
    }

    /// Folds another snapshot into this one. RCU and reclamation rows fold
    /// by their table rules ([`RcuStats::merge`], [`ReclaimStats::merge`]:
    /// counts add, high-water marks take the maximum — so two captures of
    /// the *same* domain should not be merged, that would double-count);
    /// caches merge by name, unknown names append.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        self.rcu.merge(&other.rcu);
        self.rcu_telemetry.merge(&other.rcu_telemetry);
        if self.reclaim.backend.is_empty() {
            self.reclaim.backend = other.reclaim.backend.clone();
        }
        self.reclaim.merge(&other.reclaim);
        self.blame.extend(other.blame.iter().cloned());
        self.sites.merge(&other.sites);
        for cache in &other.caches {
            self.fold_cache(cache.clone());
        }
    }

    /// Total trace events surfaced across the RCU domain and all caches.
    pub fn total_events(&self) -> usize {
        self.rcu_telemetry.events.len()
            + self
                .caches
                .iter()
                .map(|c| c.telemetry.events.len())
                .sum::<usize>()
    }

    /// Looks up a cache's telemetry by name.
    pub fn cache(&self, name: &str) -> Option<&CacheTelemetry> {
        self.caches.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new(
            RcuStats {
                gp_advances: 4,
                membarrier_advances: 4,
                synchronize_calls: 2,
                ..Default::default()
            },
            ComponentTelemetry::default(),
        );
        snap.caches.push(CacheTelemetry {
            name: "kmalloc-64".to_string(),
            stats: CacheStatsSnapshot {
                alloc_requests: 10,
                cache_hits: 9,
                ..Default::default()
            },
            telemetry: ComponentTelemetry::default(),
        });
        snap
    }

    /// The domain halves of a merge are the two tables' own merges (the
    /// per-row rules are covered by `pbs-rcu`'s table tests); this checks
    /// they are wired in, one sum row, one max row and the label each.
    #[test]
    fn merge_folds_rcu_and_reclaim_by_their_tables() {
        let mut a = sample();
        a.rcu.longest_stall_ns = 500;
        a.rcu.injected_gp_stalls = 1;
        a.reclaim.injected_stalls = 2;
        let mut b = sample();
        b.rcu.longest_stall_ns = 900;
        b.rcu.injected_gp_stalls = 4;
        b.reclaim.backend = "hp".to_owned();
        b.reclaim.injected_stalls = 3;
        a.merge(&b);
        assert_eq!(a.rcu.longest_stall_ns, 900, "longest stall is a maximum");
        assert_eq!(a.rcu.injected_gp_stalls, 5);
        assert_eq!(a.reclaim.injected_stalls, 5);
        assert_eq!(
            a.reclaim.backend, "hp",
            "an unlabelled side adopts the other's backend"
        );
    }

    #[test]
    fn merge_by_cache_name() {
        let mut a = sample();
        let mut b = sample();
        b.caches[0].stats.alloc_requests = 5;
        b.caches.push(CacheTelemetry {
            name: "filp".to_string(),
            ..Default::default()
        });
        a.merge(&b);
        assert_eq!(a.rcu.gp_advances, 8);
        assert_eq!(a.rcu.synchronize_calls, 4);
        assert_eq!(a.caches.len(), 2);
        assert_eq!(a.cache("kmalloc-64").unwrap().stats.alloc_requests, 15);
        assert!(a.cache("filp").is_some());
        assert!(a.cache("dentry").is_none());
    }

    #[test]
    fn serde_round_trip() {
        let snap = sample();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rcu, snap.rcu);
        assert_eq!(back.caches.len(), 1);
        assert_eq!(back.caches[0].name, "kmalloc-64");
        assert_eq!(back.caches[0].stats, snap.caches[0].stats);
    }

    #[test]
    fn total_events_sums_components() {
        let mut snap = sample();
        assert_eq!(snap.total_events(), 0);
        snap.rcu_telemetry
            .events
            .push(pbs_telemetry::EventSnapshot {
                seq: 0,
                t_ns: 1,
                kind: 0,
                lane: 0,
                src: 0,
                a: 0,
                b: 0,
            });
        assert_eq!(snap.total_events(), 1);
    }
}
