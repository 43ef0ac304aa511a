//! Report structures and paper-style table rendering.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use pbs_alloc_api::CacheStatsSnapshot;

/// Result of one application-benchmark run on one allocator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppResult {
    /// Benchmark name ("postmark", "netperf", "apache", "pgbench").
    pub name: String,
    /// Allocator label ("slub" / "prudence").
    pub allocator: String,
    /// Worker threads used.
    pub threads: usize,
    /// Transactions/operations completed.
    pub ops: u64,
    /// Wall-clock duration in seconds.
    pub seconds: f64,
    /// Throughput.
    pub ops_per_sec: f64,
    /// Per-slab-cache statistics, keyed by Linux-style cache name.
    pub caches: Vec<(String, CacheStatsSnapshot)>,
}

impl AppResult {
    /// Builds a result, computing throughput.
    pub fn new(
        name: &str,
        allocator: &str,
        threads: usize,
        ops: u64,
        elapsed: Duration,
        caches: Vec<(String, CacheStatsSnapshot)>,
    ) -> Self {
        let seconds = elapsed.as_secs_f64();
        Self {
            name: name.to_owned(),
            allocator: allocator.to_owned(),
            threads,
            ops,
            seconds,
            ops_per_sec: if seconds > 0.0 { ops as f64 / seconds } else { 0.0 },
            caches: caches.into_iter().collect(),
        }
    }

    /// Percentage of frees that were deferred, across all caches
    /// (Figure 12).
    pub fn deferred_free_percent(&self) -> f64 {
        let (mut deferred, mut total) = (0u64, 0u64);
        for (_, s) in &self.caches {
            deferred += s.deferred_frees;
            total += s.total_frees();
        }
        if total == 0 {
            0.0
        } else {
            100.0 * deferred as f64 / total as f64
        }
    }
}

/// Side-by-side comparison of one slab cache between the two allocators —
/// a row in each of Figures 7–11.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheComparison {
    /// Slab-cache name.
    pub cache: String,
    /// Baseline statistics.
    pub slub: CacheStatsSnapshot,
    /// Prudence statistics.
    pub prudence: CacheStatsSnapshot,
}

/// A full benchmark comparison: both runs plus the per-cache rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppComparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline run.
    pub slub: AppResult,
    /// Prudence run.
    pub prudence: AppResult,
}

impl AppComparison {
    /// Pairs up the per-cache stats of the two runs (caches present in
    /// both, in baseline order).
    pub fn cache_comparisons(&self) -> Vec<CacheComparison> {
        self.slub
            .caches
            .iter()
            .filter_map(|(name, s)| {
                let p = self
                    .prudence
                    .caches
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, p)| *p)?;
                Some(CacheComparison {
                    cache: name.clone(),
                    slub: *s,
                    prudence: p,
                })
            })
            .collect()
    }

    /// Figure 13: overall throughput improvement of Prudence, percent.
    pub fn throughput_improvement_percent(&self) -> f64 {
        if self.slub.ops_per_sec == 0.0 {
            return 0.0;
        }
        100.0 * (self.prudence.ops_per_sec - self.slub.ops_per_sec) / self.slub.ops_per_sec
    }

    /// Renders the Figures 7–13 rows for this benchmark as a text table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} ({} threads) ==",
            self.name, self.slub.threads
        );
        let _ = writeln!(
            out,
            "throughput: slub {:.0} ops/s, prudence {:.0} ops/s  (Fig 13: {:+.1}%)",
            self.slub.ops_per_sec,
            self.prudence.ops_per_sec,
            self.throughput_improvement_percent()
        );
        let _ = writeln!(
            out,
            "deferred frees (Fig 12): {:.1}% of all frees",
            self.slub.deferred_free_percent()
        );
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} | {:>8} {:>8} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6}",
            "cache",
            "hit%S",
            "hit%P",
            "ochurnS",
            "ochurnP",
            "schurnS",
            "schurnP",
            "peakS",
            "peakP",
            "fragS",
            "fragP"
        );
        for c in self.cache_comparisons() {
            let _ = writeln!(
                out,
                "{:<14} {:>8.1}% {:>8.1}% | {:>8} {:>8} | {:>7} {:>7} | {:>6} {:>6} | {:>6} {:>6}",
                c.cache,
                c.slub.hit_percent(),
                c.prudence.hit_percent(),
                c.slub.object_cache_churns(),
                c.prudence.object_cache_churns(),
                c.slub.slab_churns(),
                c.prudence.slab_churns(),
                c.slub.slabs_peak,
                c.prudence.slabs_peak,
                c.slub
                    .total_fragmentation()
                    .map_or_else(|| "-".into(), |f| format!("{f:.2}")),
                c.prudence
                    .total_fragmentation()
                    .map_or_else(|| "-".into(), |f| format!("{f:.2}")),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(hits: u64, reqs: u64, refills: u64, flushes: u64) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            object_size: 64,
            slab_bytes: 4096,
            alloc_requests: reqs,
            cache_hits: hits,
            refills,
            flushes,
            ..Default::default()
        }
    }

    #[test]
    fn app_result_throughput() {
        let r = AppResult::new("x", "slub", 4, 1000, Duration::from_secs(2), vec![]);
        assert!((r.ops_per_sec - 500.0).abs() < 1e-9);
        assert_eq!(r.deferred_free_percent(), 0.0);
    }

    #[test]
    fn comparison_renders() {
        let slub = AppResult::new(
            "t",
            "slub",
            1,
            100,
            Duration::from_secs(1),
            vec![("filp".into(), snap(50, 100, 4, 4))],
        );
        let prudence = AppResult::new(
            "t",
            "prudence",
            1,
            120,
            Duration::from_secs(1),
            vec![("filp".into(), snap(90, 100, 1, 1))],
        );
        let cmp = AppComparison {
            name: "t".into(),
            slub,
            prudence,
        };
        let text = cmp.render();
        assert!(text.contains("filp"));
        assert!((cmp.throughput_improvement_percent() - 20.0).abs() < 1e-9);
        let json = serde_json::to_string(&cmp).unwrap();
        assert!(json.contains("prudence"));
    }
}
