//! Run metadata and the on-disk report of one workload run.

use serde::{Deserialize, Serialize};

use crate::stats;

/// Provenance written into every output file, so a number can be traced
/// to the code, machine and configuration that produced it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunMeta {
    /// `git rev-parse --short HEAD`, or "unknown" outside a checkout.
    pub git_rev: String,
    /// Available hardware parallelism on the measuring machine.
    pub nproc: usize,
    /// Worker threads driving the workload.
    pub threads: usize,
    /// `threads > max(1, nproc - 1)`: the workers share cores with each
    /// other or with the program's own background threads, so the numbers
    /// are time-sliced, not scaling.
    pub oversubscribed: bool,
    /// Kernel release (`/proc/sys/kernel/osrelease`), or "unknown".
    pub kernel: String,
    /// Fast-path engine new caches select ("rseq" / "locks").
    pub fastpath_engine: String,
    /// Reclamation backend of the default configuration.
    pub reclaim_backend: String,
    /// Whether telemetry/attribution was on (the shipped default).
    pub telemetry: bool,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the run was asked to measure for.
    pub seconds: f64,
    /// Operations per round, by configuration label.
    pub ops_per_round: Vec<(String, u64)>,
}

impl RunMeta {
    /// Captures the machine- and build-level fields; the caller fills in
    /// the per-run ones (`seed`, `seconds`, `ops_per_round`).
    pub fn capture(threads: usize) -> Self {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        Self {
            git_rev,
            nproc,
            threads,
            oversubscribed: threads > default_threads(nproc),
            kernel,
            fastpath_engine: pbs_alloc_api::fastpath_default_engine().label().to_string(),
            reclaim_backend: pbs_rcu::reclaim::ReclaimBackend::from_env()
                .label()
                .to_string(),
            telemetry: pbs_telemetry::enabled(),
            ..Self::default()
        }
    }
}

/// The worker count the benchmark uses unless told otherwise: one core is
/// left to the program's own threads (grace-period driver, reclaimers,
/// pre-flush worker), and more than three workers add nothing the
/// sandbox can resolve.
pub fn default_threads(nproc: usize) -> usize {
    nproc.min(4).saturating_sub(1).max(1)
}

/// One metric of one workload run: the median over rounds with its
/// quartiles and how much data stands behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: String,
    /// Median over rounds (or the single measured value).
    pub value: f64,
    /// First quartile over rounds.
    pub q1: f64,
    /// Third quartile over rounds.
    pub q3: f64,
    /// The per-round values behind the median, in the order they were
    /// run (one value for a metric measured once).
    pub round_values: Vec<f64>,
    /// Individual samples behind each round (timed operations, sampler
    /// ticks, spans), summed over rounds; 0 where it does not apply.
    pub samples: u64,
}

impl MetricValue {
    /// A metric from per-round values; the caller names it and gives it
    /// its unit from the contract.
    pub fn from_rounds(per_round: &[f64], samples: u64) -> Self {
        let (q1, value, q3) = stats::quartiles(per_round);
        Self {
            name: String::new(),
            unit: String::new(),
            value,
            q1,
            q3,
            round_values: per_round.to_vec(),
            samples,
        }
    }

    /// A metric measured once (a counter, a flag).
    pub fn single(value: f64) -> Self {
        Self::from_rounds(&[value], 0)
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

/// One output check and its verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked (`default: quiesce drains deferred objects`).
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Observed vs expected, for the failing case.
    pub detail: String,
}

impl Check {
    /// A check that `got == want`.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: impl Into<String>, got: T, want: T) -> Self {
        Self {
            name: name.into(),
            ok: got == want,
            detail: format!("got {got:?}, want {want:?}"),
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// Whether this was the traced run (per-layer metrics) or the
    /// end-to-end run.
    pub traced: bool,
    /// Provenance.
    pub meta: RunMeta,
    /// Every output check passed and no operation failed on the default
    /// configuration.
    pub correct: bool,
    /// Operations attempted in timed rounds, all configurations.
    pub ops_attempted: u64,
    /// Operations that failed (allocation still out of memory after its
    /// retries, or a subsystem error), all configurations.
    pub ops_failed: u64,
    /// Failed operations by configuration label.
    pub failed_by_config: Vec<(String, u64)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<MetricValue>,
    /// Operation latency at a ladder of quantiles (`p50` .. `p99.9`), each
    /// the median over the default configuration's latency rounds — for
    /// reading where the gated percentiles sit on the distribution.
    pub latency_ladder_ns: Vec<(String, f64)>,
    /// Traced runs only: each layer's spans' total as a percentage of the
    /// operation spans' total (`bench` = the loop's own bookkeeping).
    pub layer_share_pct: Vec<(String, f64)>,
}

impl WorkloadReport {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Reads a report file.
    ///
    /// # Errors
    ///
    /// Returns the I/O or parse failure with the path.
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
    }

    /// Writes the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns the I/O failure with the path.
    pub fn store(&self, path: &std::path::Path) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| format!("{e:?}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_default_leaves_a_core_for_the_program() {
        assert_eq!(default_threads(1), 1);
        assert_eq!(default_threads(2), 1);
        assert_eq!(default_threads(4), 3);
        assert_eq!(default_threads(64), 3);
    }

    #[test]
    fn report_round_trips() {
        let report = WorkloadReport {
            workload: "w".into(),
            traced: false,
            meta: RunMeta {
                seed: 7,
                ops_per_round: vec![("default".into(), 10)],
                ..RunMeta::default()
            },
            correct: true,
            ops_attempted: 10,
            ops_failed: 0,
            failed_by_config: vec![("default".into(), 0)],
            checks: vec![Check::eq("c", 1, 1)],
            metrics: vec![MetricValue {
                name: "m".into(),
                ..MetricValue::from_rounds(&[1.0, 2.0, 3.0], 30)
            }],
            latency_ladder_ns: vec![("p50".into(), 100.0)],
            layer_share_pct: vec![("rcu".into(), 12.5)],
        };
        let text = serde_json::to_string_pretty(&report).unwrap();
        let back: WorkloadReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back.metrics, report.metrics);
        assert_eq!(back.meta.seed, 7);
        assert_eq!(back.checks, report.checks);
        assert_eq!(back.metric("m").unwrap().value, 2.0);
        assert_eq!(back.metric("m").unwrap().spread(), 1.0);
        assert_eq!(MetricValue::single(0.0).spread(), 0.0);
    }
}
