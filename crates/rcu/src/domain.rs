//! RCU domains: the shared state, the grace-period driver thread and the
//! public [`Rcu`] surface.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use pbs_telemetry::{ComponentTelemetry, EventRing, NamedHistogram};

use crate::config::RcuConfig;
use crate::epoch::GpState;
use crate::reader::RcuThread;
use crate::reclaim::ReclaimBackend;
use crate::registry::Registry;
use crate::stats::{RcuStats, StatsInner};
use crate::watchdog::{BlameReport, BlameState, StallWatch};

/// Lanes in the domain trace ring. Grace-period events are emitted by
/// whichever thread wins the epoch CAS or calls `synchronize`, so lanes are
/// assigned per thread (collisions tear records, which the ring's checksum
/// discards) rather than per CPU slot.
const TRACE_LANES: usize = 8;

/// Records per domain trace lane (grace-period events are rare; this keeps
/// minutes of history for typical driver intervals).
const TRACE_LANE_CAPACITY: usize = 512;

/// Shared state of an RCU domain; `Rcu` and every `RcuThread` hold an `Arc`
/// to it so registration can outlive the `Rcu` front object if needed.
/// Built by [`Inner::new`] without any thread, so every protocol over it
/// (epoch advance, watchdog scan, backend scans) runs as a unit.
pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) epoch: AtomicU64,
    pub(crate) registry: Registry,
    pub(crate) config: RcuConfig,
    pub(crate) stats: StatsInner,
    pub(crate) ring: EventRing,
    /// Stall-blame store: written by the watchdog (driver thread), read by
    /// snapshots. See [`crate::watchdog`].
    pub(crate) blame: Mutex<BlameState>,
    /// Bitmask of [`ReclaimBackend`]s (bit = discriminant) whose
    /// reclamation domains watch this registry (set at domain
    /// construction, never cleared); see
    /// [`ReadGuard::protects_backend`](crate::ReadGuard::protects_backend).
    attached_backends: AtomicU32,
    /// Stops the grace-period driver (which is unparked to see it).
    shutdown: AtomicBool,
}

impl Inner {
    pub(crate) fn new(config: RcuConfig) -> Self {
        static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(0);
        Self {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            registry: Registry::default(),
            config,
            stats: StatsInner::default(),
            ring: EventRing::new(TRACE_LANES, TRACE_LANE_CAPACITY),
            blame: Mutex::new(BlameState::default()),
            attached_backends: AtomicU32::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Whether a reclamation domain of `backend` watches this registry.
    pub(crate) fn backend_attached(&self, backend: ReclaimBackend) -> bool {
        self.attached_backends.load(Ordering::Relaxed) & (1 << backend as u32) != 0
    }
}

/// A Read-Copy-Update synchronization domain.
///
/// Owns the global epoch, the reader registry and one background thread,
/// the grace-period driver (which doubles as the stall watchdog).
/// Deferred frees are not the domain's business: they go through a
/// [`ReclamationDomain`](crate::reclaim::ReclamationDomain) built over it.
/// Dropping the `Rcu` stops the driver.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Rcu {
    inner: Arc<Inner>,
    driver: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Rcu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rcu")
            .field("epoch", &self.current_epoch())
            .field("backlog", &self.inner.stats.backlog())
            .finish()
    }
}

impl Default for Rcu {
    fn default() -> Self {
        Self::new()
    }
}

impl Rcu {
    /// Creates a domain with [`RcuConfig::default`] (Linux-like throttling).
    pub fn new() -> Self {
        Self::with_config(RcuConfig::default())
    }

    /// Creates a domain with explicit throttling/driver parameters and
    /// starts its grace-period driver, which periodically attempts an
    /// advance so grace periods complete even when no one is polling.
    pub fn with_config(config: RcuConfig) -> Self {
        let inner = Arc::new(Inner::new(config));
        let driver = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("rcu-gp-driver".into())
                .spawn(move || {
                    // The watchdog rides the driver: it already visits the
                    // registry every interval, so the scan adds no wakeups
                    // and no reader-side cost.
                    let mut watch = StallWatch::default();
                    while !inner.shutdown.load(Ordering::SeqCst) {
                        inner.try_advance();
                        inner.watchdog_scan(&mut watch, pbs_telemetry::now_nanos());
                        std::thread::park_timeout(inner.config.driver_interval);
                    }
                })
                .expect("spawn rcu gp driver")
        };
        Self {
            inner,
            driver: Some(driver),
        }
    }

    /// Registers the calling thread as an RCU reader.
    ///
    /// The returned [`RcuThread`] must stay on this thread (it is `!Send`).
    /// Dropping it deregisters the thread.
    pub fn register(&self) -> RcuThread {
        RcuThread::new(Arc::clone(&self.inner))
    }

    /// Captures the current grace-period state for stamping a deferred
    /// object (paper §4, the Prudence integration interface).
    pub fn gp_state(&self) -> GpState {
        self.inner.gp_state()
    }

    /// Returns whether the grace period for `state` has completed,
    /// opportunistically helping the epoch advance.
    pub fn poll(&self, state: GpState) -> bool {
        self.inner.poll(state)
    }

    /// Current global epoch (diagnostics only).
    pub fn current_epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// A process-unique identifier for this domain. Data structures use it
    /// to check that a [`ReadGuard`](crate::ReadGuard) protecting a
    /// traversal belongs to the same domain as the allocator reclaiming
    /// the nodes.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Blocks until a full grace period elapses.
    ///
    /// # Panics
    ///
    /// Never call this from inside a read-side critical section of this
    /// domain: it would deadlock (the calling thread's pin blocks the epoch
    /// it is waiting for). [`RcuThread::synchronize`] checks this and
    /// panics; the domain-level call cannot check unregistered callers.
    pub fn synchronize(&self) {
        self.inner.synchronize(false);
    }

    /// Blocks until a full grace period elapses, eagerly driving epoch
    /// advances (bounded spin-then-yield with backoff) instead of waiting
    /// for the opportunistic driver cadence.
    ///
    /// Use under memory pressure, where grace-period latency is the
    /// bottleneck between deferred objects and reusable memory. The drive
    /// runs the same advancer-side barrier protocol as every other
    /// advance; if the bounded drive does not finish (e.g. a reader stays
    /// pinned), the call degrades to passive polling like
    /// [`synchronize`](Self::synchronize). Counted in
    /// [`RcuStats::expedited_gps`](crate::RcuStats::expedited_gps).
    ///
    /// # Panics
    ///
    /// Same rule as [`synchronize`](Self::synchronize): never call from
    /// inside a read-side critical section of this domain.
    pub fn synchronize_expedited(&self) {
        self.inner.synchronize(true);
    }

    /// Non-blocking(ish) grace-period nudge: drives a bounded number of
    /// epoch-advance attempts toward completing a grace period for the
    /// *current* state, then returns whether it completed. Unlike
    /// [`synchronize_expedited`](Self::synchronize_expedited) this never
    /// waits indefinitely, so allocator slow paths can call it while a
    /// stalled reader keeps the epoch wedged.
    pub fn expedite(&self) -> bool {
        self.inner.expedite(self.inner.gp_state())
    }

    /// Snapshot of domain statistics. The callback rows count the queue
    /// of every [`EpochDomain`](crate::reclaim::EpochDomain) over this
    /// domain.
    pub fn stats(&self) -> RcuStats {
        RcuStats {
            callback_backlog: self.inner.stats.backlog(),
            ..self.inner.stats.snapshot()
        }
    }

    /// Every stall-blame report the watchdog has captured: cleared
    /// episodes first (bounded history), live culprits last. Empty until
    /// a reader stalls past
    /// [`stall_threshold`](crate::RcuConfig::stall_threshold).
    pub fn blame_reports(&self) -> Vec<BlameReport> {
        self.inner.blame.lock().reports()
    }

    /// Live (uncleared) blame reports only: the readers blocking the
    /// grace period *right now*, ordered by episode start.
    pub fn blame_active(&self) -> Vec<BlameReport> {
        self.inner.blame.lock().active()
    }

    /// Total stall episodes ever attributed (not bounded by the report
    /// history).
    pub fn blame_total(&self) -> u64 {
        self.inner.blame.lock().total()
    }

    /// Grace-period trace events and the latency histogram for this
    /// domain: `gp_latency_ns` (blocking `synchronize` wait). How long a
    /// deferred object waits is each cache's `defer_delay_ns`.
    pub fn telemetry(&self) -> ComponentTelemetry {
        ComponentTelemetry::new(
            self.inner.ring.snapshot(),
            vec![NamedHistogram {
                name: "gp_latency_ns".to_owned(),
                hist: self.inner.stats.gp_latency.snapshot(),
            }],
        )
    }

    /// The configuration this domain runs with.
    pub fn config(&self) -> &RcuConfig {
        &self.inner.config
    }

    /// Crate-internal handle to the shared domain state; the `reclaim`
    /// backends walk the reader registry and reuse the trace ring, the
    /// stats and the configuration through this.
    pub(crate) fn inner(&self) -> &Arc<Inner> {
        &self.inner
    }

    /// Crate-internal: records that a reclamation domain of `backend` now
    /// watches this registry. Called once per domain construction; the
    /// bit is never cleared (a domain that existed may have handed out
    /// retired objects whose protection discipline outlives it).
    pub(crate) fn attach_backend(&self, backend: ReclaimBackend) {
        self.inner
            .attached_backends
            .fetch_or(1 << backend as u32, Ordering::Relaxed);
    }
}

impl Drop for Rcu {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(driver) = self.driver.take() {
            // The unpark token outlives a wake-up sent before the park, so
            // an hour-long interval never delays teardown.
            driver.thread().unpark();
            let _ = driver.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn epoch_advances_without_readers() {
        let rcu = Rcu::new();
        let e0 = rcu.current_epoch();
        rcu.synchronize();
        assert!(rcu.current_epoch() >= e0 + 2);
    }

    #[test]
    fn domains_are_independent() {
        let a = Rcu::new();
        let b = Rcu::new();
        assert_ne!(a.id(), b.id());
        let ta = a.register();
        let _guard = ta.read_lock();
        // A pinned reader in domain A must not block domain B.
        b.synchronize();
        assert!(b.current_epoch() >= 2);
    }

    #[test]
    fn stats_count_synchronize_calls() {
        let rcu = Rcu::new();
        rcu.synchronize();
        rcu.synchronize();
        let s = rcu.stats();
        assert_eq!(s.synchronize_calls, 2);
        assert_eq!((s.callbacks_enqueued, s.callback_backlog), (0, 0));
    }

    #[test]
    fn stall_blame_names_the_culprit_exactly_once_per_episode() {
        // End to end through the driver thread and its clock.
        let rcu =
            Rcu::with_config(RcuConfig::eager().with_stall_threshold(Duration::from_millis(5)));
        let t = rcu.register();
        let guard = t.read_lock();
        std::thread::sleep(Duration::from_millis(60));
        let live = rcu.blame_active();
        assert_eq!(live.len(), 1, "one live culprit while pinned");
        let culprit = &live[0];
        // The libtest harness names worker threads after the test, so the
        // registration-time capture must surface it.
        assert!(
            culprit
                .thread_name
                .contains("stall_blame_names_the_culprit"),
            "culprit names the parked thread, got {:?}",
            culprit.thread_name
        );
        assert!(!culprit.cleared);
        assert!(
            culprit.stalled_for_ns >= 5_000_000,
            "pin duration at least the threshold, got {}",
            culprit.stalled_for_ns
        );
        assert!(
            culprit.pinned_epoch <= rcu.current_epoch(),
            "pinned epoch {} cannot be ahead of the global epoch {}",
            culprit.pinned_epoch,
            rcu.current_epoch()
        );
        assert!(culprit.pin_seq >= 1, "outermost-pin sequence captured");
        assert_eq!(rcu.blame_total(), 1);
        assert_eq!(rcu.stats().stall_blames, 1);
        drop(guard);
        std::thread::sleep(Duration::from_millis(20));
        assert!(rcu.blame_active().is_empty(), "episode cleared on unpin");
        let reports = rcu.blame_reports();
        assert_eq!(reports.len(), 1, "exactly one blame record per episode");
        assert!(reports[0].cleared);
        assert!(
            reports[0].stalled_for_ns >= 5_000_000,
            "final duration frozen at clear"
        );
        // A fresh stall is a fresh episode with its own single record.
        let g2 = t.read_lock();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(rcu.blame_total(), 2, "second episode, second record");
        assert_eq!(rcu.blame_reports().len(), 2);
        drop(g2);
        std::thread::sleep(Duration::from_millis(20));
        assert!(rcu.blame_active().is_empty());
    }
}
