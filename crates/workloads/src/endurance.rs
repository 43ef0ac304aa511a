//! Figure 3: the endurance experiment (§3.5 and §5.5).
//!
//! Every CPU continuously performs RCU linked-list update operations —
//! each update allocates a new 512-byte object and defers the free of the
//! old version. Total used memory is sampled every 10 ms.
//!
//! * **Baseline (SLUB + RCU callbacks):** deferred objects pile up in the
//!   throttled callback backlog; used memory saws upward (slab churn
//!   spikes) and eventually hits the memory limit — the paper's OOM at
//!   196 s, reproduced at laptop scale.
//! * **Prudence:** after the first grace periods, allocations are served
//!   from reclaimed latent objects and used memory stays flat.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use pbs_alloc_api::engine::EngineConfig;
use pbs_mem::WatermarkSampler;
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig};
use pbs_rcu::RcuConfig;
use pbs_structs::RcuList;

use crate::{AllocatorKind, Testbed};

/// Parameters of an endurance run.
#[derive(Debug, Clone)]
pub struct EnduranceParams {
    /// Updater threads, each with its own list (the paper updates a
    /// different list per CPU to avoid list-lock contention).
    pub threads: usize,
    /// Entries per list.
    pub list_entries: u64,
    /// Wall-clock duration to run for (unless OOM ends the run earlier).
    pub duration: Duration,
    /// Hard memory limit standing in for physical memory.
    pub memory_limit: usize,
    /// Used-memory sampling interval (10 ms in the paper).
    pub sample_interval: Duration,
    /// Reclamation backend to run under; `None` honours `PBS_RECLAIM` so
    /// the CI matrix drives the same curve through every domain. The
    /// Figure 3 pathology tests pin `Epoch`: the baseline's fatal
    /// callback backlog *is* the epoch path, and a robust backend
    /// reclaiming promptly makes the expected OOM vanish.
    pub reclaim: Option<ReclaimBackend>,
}

impl Default for EnduranceParams {
    fn default() -> Self {
        Self {
            threads: crate::microbench::num_threads(),
            list_entries: 64,
            duration: Duration::from_secs(10),
            memory_limit: 64 << 20,
            sample_interval: Duration::from_millis(10),
            reclaim: None,
        }
    }
}

/// One used-memory observation (milliseconds, bytes).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnduranceSample {
    /// Milliseconds since the run started.
    pub ms: u64,
    /// Total used memory at that instant.
    pub used_bytes: usize,
}

/// Outcome of an endurance run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnduranceReport {
    /// Allocator label.
    pub allocator: String,
    /// Used-memory time series (Figure 3's curve).
    pub samples: Vec<EnduranceSample>,
    /// When the workload hit out-of-memory, if it did.
    pub oom_at_ms: Option<u64>,
    /// Update operations completed before the run ended.
    pub updates: u64,
    /// Peak used memory observed.
    pub peak_used_bytes: usize,
    /// Used memory at the end of the run.
    pub final_used_bytes: usize,
    /// Full telemetry capture of the run (RCU domain + per-thread caches).
    pub telemetry: pbs_alloc_api::TelemetrySnapshot,
}

impl EnduranceReport {
    /// Renders a compact text summary plus a coarse sparkline of the
    /// memory curve.
    pub fn render(&self) -> String {
        let bars = "▁▂▃▄▅▆▇█";
        let max = self.samples.iter().map(|s| s.used_bytes).max().unwrap_or(1).max(1);
        let spark: String = self
            .samples
            .iter()
            .step_by((self.samples.len() / 60).max(1))
            .map(|s| {
                let i = (s.used_bytes * 7 / max).min(7);
                bars.chars().nth(i).expect("index in range")
            })
            .collect();
        format!(
            "{:<9} updates={:<10} peak={:>6} KiB final={:>6} KiB {} {}",
            self.allocator,
            self.updates,
            self.peak_used_bytes / 1024,
            self.final_used_bytes / 1024,
            match self.oom_at_ms {
                Some(ms) => format!("OOM at {ms} ms"),
                None => "no OOM".to_owned(),
            },
            spark
        )
    }
}

/// Runs the endurance workload on one allocator.
pub fn run_endurance(kind: AllocatorKind, params: &EnduranceParams) -> EnduranceReport {
    // Callback-processing capacity modeled after a single CPU's softirq
    // budget: the saturating updaters outrun reclamation and the baseline
    // backlog grows without bound, exactly as §3.5 describes. Prudence
    // never touches the callback path, so only the grace-period length
    // matters to it. Figure 3 characterises the *unhardened* baseline the
    // paper measured, so the recovery ladder is pinned off here
    // (`oom_retries: 0`); Prudence keeps its full configuration.
    let bed = Testbed::new_tuned(
        kind,
        params.threads,
        RcuConfig::overwhelmed(),
        Some(params.memory_limit),
        None,
        Some(EngineConfig {
            oom_retries: 0,
            ..EngineConfig::default()
        }),
        None,
        params
            .reclaim
            .map(|backend| (backend, ReclaimConfig::default())),
    );
    let sampler = WatermarkSampler::start(Arc::clone(bed.pages()), params.sample_interval);
    let oom = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let mut updates = 0u64;
    // The lists (and thus the caches) die with their worker threads; hold
    // an extra handle per cache so the post-run telemetry sweep still sees
    // them.
    let mut kept_caches = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..params.threads {
            let bed = &bed;
            let oom = Arc::clone(&oom);
            let params = params.clone();
            handles.push(s.spawn(move || {
                // Each CPU updates a different list (no list-lock
                // contention), objects are 512 bytes as in §3.5.
                let cache = bed.create_cache(&format!("endurance-{t}"), 512);
                let keep = Arc::clone(&cache);
                let list: RcuList<[u64; 4]> = RcuList::new(cache);
                for i in 0..params.list_entries {
                    if list.insert(i, [i; 4]).is_err() {
                        oom.store(true, Ordering::Relaxed);
                        return (0, keep);
                    }
                }
                let mut local = 0u64;
                while start.elapsed() < params.duration && !oom.load(Ordering::Relaxed) {
                    let key = local % params.list_entries;
                    match list.update(key, [local; 4]) {
                        Ok(_) => local += 1,
                        Err(_) => {
                            oom.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                (local, keep)
            }));
        }
        for h in handles {
            let (local, keep) = h.join().expect("endurance worker");
            updates += local;
            kept_caches.push(keep);
        }
    });
    let oom_at_ms = oom
        .load(Ordering::Relaxed)
        .then(|| start.elapsed().as_millis() as u64);
    let raw = sampler.stop();
    let samples: Vec<EnduranceSample> = raw
        .iter()
        .map(|s| EnduranceSample {
            ms: s.elapsed.as_millis() as u64,
            used_bytes: s.used_bytes,
        })
        .collect();
    let peak = bed.pages().peak_bytes();
    let final_used = bed.pages().used_bytes();
    let telemetry = bed.telemetry();
    drop(kept_caches);
    EnduranceReport {
        allocator: kind.label().to_owned(),
        samples,
        oom_at_ms,
        updates,
        peak_used_bytes: peak,
        final_used_bytes: final_used,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(limit: usize) -> EnduranceParams {
        EnduranceParams {
            threads: 2,
            list_entries: 32,
            duration: Duration::from_millis(1500),
            memory_limit: limit,
            sample_interval: Duration::from_millis(5),
            reclaim: None,
        }
    }

    #[test]
    fn prudence_reaches_equilibrium() {
        let report = run_endurance(AllocatorKind::Prudence, &quick(48 << 20));
        assert!(report.oom_at_ms.is_none(), "prudence must not OOM: {report:?}");
        assert!(report.updates > 0);
        assert!(!report.samples.is_empty());
        assert!(report.render().contains("no OOM"));
    }

    #[test]
    fn slub_exhausts_memory_under_sustained_deferral() {
        // A small budget makes the baseline's extended object lifetimes
        // fatal quickly, as in Figure 3. Pinned to the epoch domain: the
        // fatal backlog is the callback path's pathology, and a robust
        // backend (PBS_RECLAIM=hp/hyaline) reclaims it away.
        let params = EnduranceParams {
            reclaim: Some(ReclaimBackend::Epoch),
            ..quick(6 << 20)
        };
        let report = run_endurance(AllocatorKind::Slub, &params);
        assert!(
            report.oom_at_ms.is_some(),
            "baseline should hit OOM: peak={} final={}",
            report.peak_used_bytes,
            report.final_used_bytes
        );
    }

    #[test]
    fn prudence_survives_budget_that_kills_slub() {
        let params = quick(6 << 20);
        let report = run_endurance(AllocatorKind::Prudence, &params);
        assert!(
            report.oom_at_ms.is_none(),
            "prudence should survive the small budget: {report:?}"
        );
    }
}
