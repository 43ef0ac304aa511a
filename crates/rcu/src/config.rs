//! Grace-period driver, watchdog and callback-throttling parameters.

use std::sync::Arc;
use std::time::Duration;

/// Throttling and background-thread parameters for an RCU domain.
///
/// Defaults mirror the spirit of Linux RCU: small callback batches
/// (`blimit`), escalation when the backlog crosses `qhimark`, and pacing
/// between batches (standing in for softirq scheduling delay). The
/// callback fields configure the queue an
/// [`EpochDomain`](crate::reclaim::EpochDomain) over this domain runs —
/// the baseline's deferred frees; the rest configure the domain itself.
///
/// # Example
///
/// ```
/// use pbs_rcu::{Rcu, RcuConfig};
/// use std::time::Duration;
///
/// let rcu = Rcu::with_config(RcuConfig {
///     blimit: 10,
///     qhimark: 10_000,
///     blimit_max: 4096,
///     batch_interval: Duration::from_micros(500),
///     ..RcuConfig::default()
/// });
/// assert_eq!(rcu.config().blimit, 10);
/// ```
#[derive(Clone)]
pub struct RcuConfig {
    /// Maximum callbacks a reclaimer processes per batch under normal load
    /// (Linux default is 10).
    pub blimit: usize,
    /// Backlog threshold above which throttling escalates to
    /// [`blimit_max`](Self::blimit_max) (Linux `qhimark`, default 10000).
    pub qhimark: usize,
    /// Batch limit used while the backlog exceeds `qhimark`.
    pub blimit_max: usize,
    /// Pause between reclaimer batches (softirq-pacing analog).
    pub batch_interval: Duration,
    /// Interval at which the grace-period driver attempts epoch advance.
    pub driver_interval: Duration,
    /// Number of background reclaimer threads (parallel callback
    /// processing, as on multi-CPU kernels), started by an epoch
    /// domain's first defer.
    pub reclaimer_threads: usize,
    /// Number of callback queue shards.
    pub shards: usize,
    /// Optional memory-pressure probe in `[0, 1]`. When it reports more
    /// than [`pressure_threshold`](Self::pressure_threshold), reclaimers
    /// escalate to [`pressure_blimit`](Self::pressure_blimit) — the
    /// paper's §3.5 observation that "RCU attempts to process more
    /// deferred objects as the memory pressure increases".
    pub pressure_probe: Option<Arc<dyn Fn() -> f64 + Send + Sync>>,
    /// Pressure level above which expedited processing kicks in.
    pub pressure_threshold: f64,
    /// Batch limit used while under memory pressure.
    pub pressure_blimit: usize,
    /// Optional fault injector consulted (site [`pbs_fault::site::RECLAIM_ADVANCE`])
    /// on every grace-period-advance attempt; a scheduled fault refuses the
    /// advance, stalling reclamation for that attempt. Stalls are counted in
    /// [`RcuStats::injected_gp_stalls`](crate::RcuStats::injected_gp_stalls).
    pub fault_injector: Option<Arc<pbs_fault::FaultInjector>>,
    /// Reader-pin duration past which the stall watchdog warns. The
    /// watchdog piggybacks on the grace-period driver thread — detection
    /// latency is bounded below by [`driver_interval`](Self::driver_interval)
    /// — and fires exactly one warning per stall episode
    /// ([`RcuStats::stall_warnings`](crate::RcuStats::stall_warnings)),
    /// clearing when the reader unpins.
    pub stall_threshold: Duration,
}

impl std::fmt::Debug for RcuConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuConfig")
            .field("blimit", &self.blimit)
            .field("qhimark", &self.qhimark)
            .field("blimit_max", &self.blimit_max)
            .field("batch_interval", &self.batch_interval)
            .field("driver_interval", &self.driver_interval)
            .field("reclaimer_threads", &self.reclaimer_threads)
            .field("shards", &self.shards)
            .field(
                "pressure_probe",
                &self.pressure_probe.as_ref().map(|_| "<fn>"),
            )
            .field("pressure_threshold", &self.pressure_threshold)
            .field("pressure_blimit", &self.pressure_blimit)
            .field(
                "fault_injector",
                &self.fault_injector.as_ref().map(|_| "<injector>"),
            )
            .field("stall_threshold", &self.stall_threshold)
            .finish()
    }
}

impl Default for RcuConfig {
    fn default() -> Self {
        Self {
            blimit: 64,
            qhimark: 10_000,
            blimit_max: 8192,
            batch_interval: Duration::from_micros(200),
            driver_interval: Duration::from_micros(50),
            reclaimer_threads: 2,
            shards: 16,
            pressure_probe: None,
            pressure_threshold: 0.8,
            pressure_blimit: 16384,
            fault_injector: None,
            // Long enough that ordinary read-side critical sections (ns–µs)
            // never warn; short enough that a wedged reader is reported
            // within human-noticeable time.
            stall_threshold: Duration::from_millis(100),
        }
    }
}

impl RcuConfig {
    /// A configuration with aggressive, barely-throttled reclamation; useful
    /// in tests that want callbacks to run promptly.
    pub fn eager() -> Self {
        Self {
            blimit: usize::MAX,
            qhimark: 0,
            blimit_max: usize::MAX,
            batch_interval: Duration::from_micros(20),
            driver_interval: Duration::from_micros(20),
            reclaimer_threads: 2,
            shards: 8,
            ..Self::default()
        }
    }

    /// Attaches a memory-pressure probe (see
    /// [`pressure_probe`](Self::pressure_probe)).
    pub fn with_pressure_probe(mut self, probe: Arc<dyn Fn() -> f64 + Send + Sync>) -> Self {
        self.pressure_probe = Some(probe);
        self
    }

    /// Attaches a fault injector (see
    /// [`fault_injector`](Self::fault_injector)).
    pub fn with_fault_injector(mut self, faults: Arc<pbs_fault::FaultInjector>) -> Self {
        self.fault_injector = Some(faults);
        self
    }

    /// Sets the stall-watchdog threshold (see
    /// [`stall_threshold`](Self::stall_threshold)).
    pub fn with_stall_threshold(mut self, threshold: Duration) -> Self {
        self.stall_threshold = threshold;
        self
    }

    /// A configuration that mirrors Linux defaults closely enough to
    /// reproduce the paper's §3.5 endurance pathology at laptop scale:
    /// small batches, slow escalation, and millisecond-scale grace
    /// periods. The driver interval is the key burstiness knob — kernel
    /// grace periods take milliseconds, so completed callbacks arrive in
    /// large per-grace-period bursts rather than a smooth trickle.
    pub fn linux_like() -> Self {
        Self {
            blimit: 10,
            qhimark: 10_000,
            blimit_max: 2048,
            batch_interval: Duration::from_micros(500),
            driver_interval: Duration::from_millis(1),
            reclaimer_threads: 2,
            shards: 16,
            ..Self::default()
        }
    }

    /// Kernel-shaped *bursty* reclamation: grace periods take
    /// milliseconds, and when one completes the softirq path re-raises
    /// itself until the ready list is drained. The result is exactly the
    /// §3.1 pathology — "object allocation is spread over an interval of
    /// time, whereas freeing occurs in bursts" — a full grace period's
    /// worth of frees landing on the allocator at once.
    pub fn kernel_bursty() -> Self {
        Self {
            blimit: 512,
            qhimark: 10_000,
            blimit_max: 8192,
            batch_interval: Duration::from_micros(100),
            driver_interval: Duration::from_millis(2),
            reclaimer_threads: 2,
            shards: 16,
            ..Self::default()
        }
    }

    /// The endurance configuration (§3.5): reclamation capacity modeled
    /// after a single CPU's softirq budget so that, as on the paper's
    /// 64-CPU machine, a saturating updater outruns callback processing
    /// and the baseline's backlog grows without bound.
    pub fn overwhelmed() -> Self {
        Self {
            blimit: 10,
            qhimark: 10_000,
            blimit_max: 512,
            batch_interval: Duration::from_millis(1),
            driver_interval: Duration::from_millis(1),
            reclaimer_threads: 1,
            shards: 16,
            // Expedited-but-still-insufficient processing under pressure,
            // as in Figure 3's ~70 s inflection before the eventual OOM.
            pressure_blimit: 1024,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_throttled() {
        let c = RcuConfig::default();
        assert!(c.blimit < c.blimit_max);
        assert!(c.qhimark > 0);
        assert!(c.pressure_probe.is_none());
        assert!(format!("{c:?}").contains("blimit"));
    }
}
