//! RCU domains, thread registration, and read-side critical sections.

use std::cell::Cell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{
    compiler_fence, fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use pbs_telemetry::{ComponentTelemetry, EventKind, EventRing, NamedHistogram};

use crate::blame::{BlameReport, BlameState};
use crate::callback::{reclaimer_loop, Callback, CallbackShard, RcuConfig};
use crate::epoch::{GpState, ThreadRecord, HP_SLOTS};
use crate::membarrier;
use crate::reclaim::ReclaimBackend;
use crate::stats::{RcuStats, StatsInner};

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
pub(crate) struct Inner {
    pub(crate) id: u64,
    pub(crate) epoch: AtomicU64,
    pub(crate) registry: Mutex<Vec<Arc<CachePadded<ThreadRecord>>>>,
    pub(crate) config: RcuConfig,
    pub(crate) shards: Vec<CallbackShard>,
    pub(crate) shard_cursor: AtomicUsize,
    pub(crate) backlog: AtomicUsize,
    pub(crate) shutdown: AtomicBool,
    /// Pairs with `park_cv`: worker threads sleep on this between passes so
    /// `Drop` can cut a pending interval short instead of waiting it out
    /// (tests park the driver with hour-long intervals).
    pub(crate) park_lock: std::sync::Mutex<()>,
    pub(crate) park_cv: std::sync::Condvar,
    pub(crate) stats: StatsInner,
    pub(crate) ring: EventRing,
    /// Stall-blame store: written by the watchdog (driver thread), read by
    /// snapshots. See [`crate::blame`].
    pub(crate) blame: Mutex<BlameState>,
    /// Bitmask of [`ReclaimBackend`]s whose reclamation domains watch this
    /// registry (set at domain construction, never cleared). A guard taken
    /// on this `Rcu` genuinely participates in a backend's protocol — its
    /// hazard slots are scanned, its pins are batch-captured — only when
    /// the corresponding bit is set; see [`ReadGuard::protects_backend`].
    pub(crate) attached_backends: AtomicU32,
}

/// Bit assigned to `backend` in [`Inner::attached_backends`].
fn backend_bit(backend: ReclaimBackend) -> u32 {
    match backend {
        ReclaimBackend::Epoch => 1 << 0,
        ReclaimBackend::Hp => 1 << 1,
        ReclaimBackend::Hyaline => 1 << 2,
    }
}

impl Inner {
    /// Attempts to advance the global epoch by one. Succeeds only when every
    /// active, pinned reader has observed the current epoch. Returns the
    /// epoch observed after the attempt.
    pub(crate) fn try_advance(&self) -> u64 {
        // Injected grace-period stall: refuse this attempt outright, as if
        // a pinned reader were lagging. Refusing an advance is always safe
        // (it only procrastinates harder), which is what makes this fault
        // injectable at will without a soundness question. Both the
        // epoch-specific site and its backend-generic generalization are
        // consulted (each counts its call either way, so harnesses can
        // compare injected totals against the stall stat).
        if let Some(faults) = &self.config.fault_injector {
            let stall = faults.should_fail(pbs_fault::site::RCU_ADVANCE);
            let stall = faults.should_fail(pbs_fault::site::RECLAIM_ADVANCE) || stall;
            if stall {
                self.stats.injected_gp_stalls.fetch_add(1, Ordering::Relaxed);
                return self.epoch.load(Ordering::Acquire);
            }
        }
        let global = self.epoch.load(Ordering::Acquire);
        let registry = self.registry.lock();
        // Cheap refusal first: if any pin is already *visibly* behind the
        // global epoch the advance will fail regardless, so skip the heavy
        // barrier below. Refusing to advance is always safe; only the
        // decision to advance needs the barrier-then-scan protocol.
        for rec in registry.iter() {
            if rec.is_active() {
                if let Some(e) = rec.peek_pinned_epoch() {
                    if e != global {
                        return global;
                    }
                }
            }
        }
        // The read side pins with a plain Release store, so the advancer
        // carries the StoreLoad ordering burden before it may trust a
        // scan: a full fence, then — when readers run fence-free — a
        // process-wide membarrier that imposes a barrier on every reader's
        // instruction stream (see `membarrier` module for the soundness
        // argument; in fallback mode readers fence themselves and this is
        // a no-op). The scan itself uses an RMW, which must return the
        // latest value in each record's modification order. Grace periods
        // are orders of magnitude rarer than pins; this is the cheap side
        // to tax.
        fence(Ordering::SeqCst);
        membarrier::heavy_barrier();
        for rec in registry.iter() {
            if !rec.is_active() {
                continue;
            }
            if let Some(e) = rec.observe_pinned_epoch() {
                if e != global {
                    return global;
                }
            }
        }
        drop(registry);
        if self
            .epoch
            .compare_exchange(global, global + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.stats.gp_advances.fetch_add(1, Ordering::Relaxed);
            // Which barrier protocol justified this advance (decided once
            // per process, but counted per advance so the runtime path is
            // observable from the stats snapshot).
            if membarrier::readers_elide_fence() {
                self.stats.membarrier_advances.fetch_add(1, Ordering::Relaxed);
                self.ring
                    .record_thread(EventKind::GpAdvanceMembarrier, 0, global + 1, 0);
            } else {
                self.stats
                    .fallback_fence_advances
                    .fetch_add(1, Ordering::Relaxed);
                self.ring
                    .record_thread(EventKind::GpAdvanceFence, 0, global + 1, 0);
            }
            global + 1
        } else {
            self.epoch.load(Ordering::Acquire)
        }
    }

    pub(crate) fn poll(&self, state: GpState) -> bool {
        if state.completed_at(self.epoch.load(Ordering::Acquire)) {
            return true;
        }
        let now = self.try_advance();
        state.completed_at(now)
    }

    /// Eagerly drives epoch advances until the grace period for `state`
    /// completes or the bounded retry budget runs out. Returns whether the
    /// grace period completed during the drive.
    ///
    /// Each round runs the full advancer-side barrier protocol of
    /// [`try_advance`](Self::try_advance) (fence + membarrier before the
    /// scan) — expediting changes only *how often* advances are attempted,
    /// never the ordering argument that justifies them. Between rounds the
    /// drive spins with exponential backoff for the first few attempts,
    /// then yields the CPU: an expedited caller must not starve the pinned
    /// readers it is waiting on.
    pub(crate) fn expedite(&self, state: GpState) -> bool {
        self.stats.expedited_gps.fetch_add(1, Ordering::Relaxed);
        if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::GpExpedite, 0, state.raw_epoch(), 0);
        }
        let retries = self.config.expedite_retries.max(1);
        let mut backoff = 1u32;
        for round in 0..retries {
            if state.completed_at(self.try_advance()) {
                return true;
            }
            if round < 8 {
                for _ in 0..backoff {
                    std::hint::spin_loop();
                }
                backoff = backoff.saturating_mul(2).min(64);
            } else {
                std::thread::yield_now();
            }
        }
        state.completed_at(self.epoch.load(Ordering::Acquire))
    }

    /// Blocks until a full grace period has elapsed from the moment of call.
    pub(crate) fn synchronize(&self) {
        self.synchronize_impl(false);
    }

    /// Like [`synchronize`](Self::synchronize), but front-loads a bounded
    /// expedited drive before falling back to passive polling.
    pub(crate) fn synchronize_expedited(&self) {
        self.synchronize_impl(true);
    }

    fn synchronize_impl(&self, expedited: bool) {
        let state = GpState(self.epoch.load(Ordering::Acquire));
        // Timing/tracing sits entirely behind the enabled gate; the
        // disabled cost of a synchronize is one Relaxed load + branch.
        let begin_ns = if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::GpBegin, 0, state.raw_epoch(), 0);
            Some(pbs_telemetry::now_nanos())
        } else {
            None
        };
        if expedited {
            self.expedite(state);
        }
        let mut spins = 0u32;
        while !self.poll(state) {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        self.stats.synchronize_calls.fetch_add(1, Ordering::Relaxed);
        if let Some(begin) = begin_ns {
            let waited = pbs_telemetry::now_nanos().saturating_sub(begin);
            self.stats.gp_latency.record(waited);
            self.ring.record_thread(
                EventKind::GpComplete,
                0,
                waited,
                self.epoch.load(Ordering::Relaxed),
            );
        }
    }

    /// One stall-watchdog pass over the reader registry; runs on the
    /// grace-period driver thread, which owns `watch` exclusively.
    ///
    /// Detection is entirely advancer-side: readers never read a clock or
    /// write a timestamp, so the read fast path is untouched. The watchdog
    /// instead remembers the first scan at which it saw a record pinned at
    /// a given state word and measures the stall from that scan. A changed
    /// word (unpin, or a re-pin at a newer epoch — i.e. reader progress)
    /// ends the episode. A reader that keeps re-pinning at the *same*
    /// epoch while the epoch is wedged by something else is
    /// indistinguishable from a stalled one and may be warned about;
    /// warnings are advisory, so the false positive is benign.
    ///
    /// Exactly one warning fires per episode: `warned` latches until the
    /// episode ends, at which point the warning clears
    /// (`active_stalls` gauge decrements, `StallClear` traces).
    /// Detection latency is bounded below by the driver interval.
    pub(crate) fn watchdog_scan(&self, watch: &mut StallWatch) {
        let threshold = self.config.stall_threshold.as_nanos() as u64;
        let now = pbs_telemetry::now_nanos();
        for entry in watch.entries.values_mut() {
            entry.seen = false;
        }
        let registry = self.registry.lock();
        for rec in registry.iter() {
            // Advisory Relaxed read is all a watchdog needs: a stale view
            // only shifts detection by one scan interval either way.
            let pinned = if rec.is_active() {
                rec.peek_pinned_epoch()
            } else {
                None
            };
            let entry = watch.entries.entry(rec.id()).or_insert(WatchEntry {
                pinned: None,
                since_ns: now,
                warned: false,
                seen: true,
            });
            entry.seen = true;
            if pinned.is_none() || pinned != entry.pinned {
                // Episode over (unpin) or a new one starting (fresh pin /
                // re-pin at a later epoch).
                if entry.warned {
                    self.clear_stall(rec.id(), now.saturating_sub(entry.since_ns));
                }
                entry.pinned = pinned;
                entry.since_ns = now;
                entry.warned = false;
            } else {
                // Still pinned at the same epoch: the episode continues.
                let stalled_for = now.saturating_sub(entry.since_ns);
                if !entry.warned && stalled_for >= threshold {
                    entry.warned = true;
                    self.warn_stall(rec.id(), stalled_for);
                    // Blame capture rides the same per-episode latch as
                    // the warning, so there is exactly one report per
                    // episode. The record is in hand (registry locked),
                    // so the culprit's identity — name, pin sequence,
                    // published hazards — costs no extra synchronization
                    // and no reader-side work.
                    self.open_blame(rec, entry.pinned, stalled_for, entry.since_ns);
                } else if entry.warned {
                    self.blame.lock().refresh(rec.id(), stalled_for);
                }
                if entry.warned {
                    self.stats
                        .longest_stall_ns
                        .fetch_max(stalled_for, Ordering::Relaxed);
                }
            }
        }
        drop(registry);
        // Records pruned from the registry take their episodes with them.
        let mut orphaned_warned: Vec<(u64, u64)> = Vec::new();
        watch.entries.retain(|id, entry| {
            if !entry.seen && entry.warned {
                orphaned_warned.push((*id, now.saturating_sub(entry.since_ns)));
            }
            entry.seen
        });
        for (id, stalled_for) in orphaned_warned {
            self.clear_stall(id, stalled_for);
        }
    }

    /// Shutdown-aware sleep for worker threads: waits up to `timeout` or
    /// until `Drop` signals `park_cv`. The shutdown flag is re-checked
    /// under the lock, so a signal sent before the wait begins is never
    /// missed — without this, `Drop` blocks for a full `driver_interval`
    /// (an hour, in tests that park the driver).
    pub(crate) fn park(&self, timeout: Duration) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let guard = self
            .park_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let _ = self
            .park_cv
            .wait_timeout(guard, timeout)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }

    /// Opens the blame episode for a newly-warned stalled reader. Runs on
    /// the watchdog caller with the registry lock held; the reader itself
    /// does nothing (and in particular never touches a clock).
    fn open_blame(
        &self,
        rec: &ThreadRecord,
        pinned_epoch: Option<u64>,
        stalled_for_ns: u64,
        since_ns: u64,
    ) {
        let hazards: Vec<usize> = (0..HP_SLOTS).map(|s| rec.hazard(s)).filter(|&a| a != 0).collect();
        let report = BlameReport {
            record_id: rec.id(),
            thread_name: rec.thread_name().to_string(),
            pinned_epoch: pinned_epoch.unwrap_or_default(),
            pin_seq: rec.pin_seq(),
            stalled_for_ns,
            since_ns,
            hazards,
            cleared: false,
        };
        self.stats.stall_blames.fetch_add(1, Ordering::Relaxed);
        if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::StallBlame, 0, rec.id(), report.pin_seq);
        }
        self.blame.lock().open(report);
    }

    fn warn_stall(&self, record_id: u64, stalled_for_ns: u64) {
        self.stats.stall_warnings.fetch_add(1, Ordering::Relaxed);
        self.stats.active_stalls.fetch_add(1, Ordering::Relaxed);
        self.stats
            .longest_stall_ns
            .fetch_max(stalled_for_ns, Ordering::Relaxed);
        if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::StallWarn, 0, stalled_for_ns, record_id);
        }
    }

    fn clear_stall(&self, record_id: u64, stalled_for_ns: u64) {
        self.stats.active_stalls.fetch_sub(1, Ordering::Relaxed);
        self.blame.lock().clear(record_id, stalled_for_ns);
        if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::StallClear, 0, stalled_for_ns, record_id);
        }
    }

    /// Shared `call_rcu` body for `Rcu` and `RcuThread`.
    pub(crate) fn enqueue_callback(&self, callback: Box<dyn FnOnce() + Send>) {
        let stamp = self.epoch.load(Ordering::Acquire);
        let queued_ns = if pbs_telemetry::enabled() {
            pbs_telemetry::now_nanos()
        } else {
            0 // sentinel: delay not measurable for this callback
        };
        let idx = self.shard_cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[idx].push(Callback {
            stamp,
            queued_ns,
            callback,
        });
        self.backlog.fetch_add(1, Ordering::Relaxed);
        let backlog = self.backlog.load(Ordering::Relaxed);
        self.stats.record_enqueue(backlog);
    }
}

/// Driver-thread-local state of the stall watchdog: one entry per reader
/// record, keyed by record id. Never shared — only the grace-period driver
/// reads or writes it, so no entry needs atomics.
#[derive(Default)]
pub(crate) struct StallWatch {
    entries: HashMap<u64, WatchEntry>,
}

struct WatchEntry {
    /// The pinned epoch the current episode was first observed at
    /// (`None` = record was unpinned at the last scan).
    pinned: Option<u64>,
    /// Scan timestamp the episode started at.
    since_ns: u64,
    /// Whether this episode already fired its (single) warning.
    warned: bool,
    /// Scratch: seen during the current scan (prunes dead records).
    seen: bool,
}

/// A Read-Copy-Update synchronization domain.
///
/// Owns the global epoch, the reader registry, the callback queues and the
/// background grace-period driver / reclaimer threads. Dropping the `Rcu`
/// shuts the background threads down and makes a best-effort drain of
/// pending callbacks.
///
/// See the [crate-level documentation](crate) for a full example.
pub struct Rcu {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Rcu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rcu")
            .field("epoch", &self.current_epoch())
            .field("backlog", &self.callback_backlog())
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

    /// Creates a domain with explicit throttling/driver parameters.
    pub fn with_config(config: RcuConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| CallbackShard::new())
            .collect();
        static NEXT_DOMAIN_ID: AtomicU64 = AtomicU64::new(0);
        let inner = Arc::new(Inner {
            id: NEXT_DOMAIN_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
            config,
            shards,
            shard_cursor: AtomicUsize::new(0),
            backlog: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            park_lock: std::sync::Mutex::new(()),
            park_cv: std::sync::Condvar::new(),
            stats: StatsInner::default(),
            ring: EventRing::new(TRACE_LANES, TRACE_LANE_CAPACITY),
            blame: Mutex::new(BlameState::default()),
            attached_backends: AtomicU32::new(0),
        });
        let mut workers = Vec::new();
        // Grace-period driver: periodically attempts epoch advance so grace
        // periods complete even when no one is polling.
        {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("rcu-gp-driver".into())
                    .spawn(move || {
                        // The driver doubles as the stall watchdog: it
                        // already visits the registry every interval, so
                        // the scan adds no new wakeups and no reader-side
                        // cost.
                        let mut watch = StallWatch::default();
                        while !inner.shutdown.load(Ordering::SeqCst) {
                            inner.try_advance();
                            inner.watchdog_scan(&mut watch);
                            inner.park(inner.config.driver_interval);
                        }
                    })
                    .expect("spawn rcu gp driver"),
            );
        }
        // Callback reclaimers: process deferred callbacks after their grace
        // period, throttled by blimit — this is the Linux-RCU behaviour the
        // paper's baseline exhibits.
        for worker_idx in 0..inner.config.reclaimer_threads.max(1) {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("rcu-reclaim-{worker_idx}"))
                    .spawn(move || reclaimer_loop(&inner, worker_idx))
                    .expect("spawn rcu reclaimer"),
            );
        }
        Self {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Registers the calling thread as an RCU reader.
    ///
    /// The returned [`RcuThread`] must stay on this thread (it is `!Send`).
    /// Dropping it deregisters the thread.
    pub fn register(&self) -> RcuThread {
        // Padded to a full cache line: records are tiny heap cells that
        // would otherwise share lines, putting every reader's pin word on
        // the same line as a stranger's and defeating the per-thread
        // layout.
        let record = Arc::new(CachePadded::new(ThreadRecord::new()));
        let mut registry = self.inner.registry.lock();
        registry.retain(|r| r.is_active());
        registry.push(Arc::clone(&record));
        drop(registry);
        RcuThread {
            inner: Arc::clone(&self.inner),
            record,
            nesting: Cell::new(0),
            tainted: Cell::new(false),
            walk_depth: Cell::new(0),
            _not_send: PhantomData,
        }
    }

    /// Captures the current grace-period state for stamping a deferred
    /// object (paper §4, the Prudence integration interface).
    pub fn gp_state(&self) -> GpState {
        GpState(self.inner.epoch.load(Ordering::Acquire))
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
    /// to check that a [`ReadGuard`] protecting a traversal belongs to the
    /// same domain as the allocator reclaiming the nodes.
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
        self.inner.synchronize();
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
        self.inner.synchronize_expedited();
    }

    /// Non-blocking(ish) grace-period nudge: drives a bounded number of
    /// epoch-advance attempts toward completing a grace period for the
    /// *current* state, then returns whether it completed. Unlike
    /// [`synchronize_expedited`](Self::synchronize_expedited) this never
    /// waits indefinitely, so allocator slow paths can call it while a
    /// stalled reader keeps the epoch wedged.
    pub fn expedite(&self) -> bool {
        let state = GpState(self.inner.epoch.load(Ordering::Acquire));
        self.inner.expedite(state)
    }

    /// Defers `callback` until after a grace period, mimicking the kernel's
    /// `call_rcu`. Callbacks run on background reclaimer threads, batched
    /// and throttled per [`RcuConfig`] — deliberately reproducing the
    /// extended object lifetimes and bursty freeing of the baseline system.
    pub fn call_rcu(&self, callback: Box<dyn FnOnce() + Send>) {
        self.inner.enqueue_callback(callback);
    }

    /// Number of callbacks queued and not yet run.
    pub fn callback_backlog(&self) -> usize {
        self.inner.backlog.load(Ordering::Relaxed)
    }

    /// Blocks until every callback queued *before* this call has run
    /// (the analog of `rcu_barrier`).
    ///
    /// # Panics
    ///
    /// Like [`synchronize`](Self::synchronize), must not be called from
    /// inside a read-side critical section.
    pub fn barrier(&self) {
        let target = self.inner.stats.callbacks_enqueued.load(Ordering::Relaxed);
        while self.inner.stats.callbacks_processed.load(Ordering::Relaxed) < target {
            self.inner.try_advance();
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Snapshot of domain statistics.
    pub fn stats(&self) -> RcuStats {
        RcuStats {
            callback_backlog: self.callback_backlog(),
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

    /// Grace-period trace events and latency histograms for this domain:
    /// `gp_latency_ns` (blocking `synchronize` wait) and
    /// `callback_delay_ns` (`call_rcu` enqueue → execution).
    pub fn telemetry(&self) -> ComponentTelemetry {
        ComponentTelemetry::new(
            self.inner.ring.snapshot(),
            vec![
                NamedHistogram {
                    name: "gp_latency_ns".to_owned(),
                    hist: self.inner.stats.gp_latency.snapshot(),
                },
                NamedHistogram {
                    name: "callback_delay_ns".to_owned(),
                    hist: self.inner.stats.callback_delay.snapshot(),
                },
            ],
        )
    }

    /// The configuration this domain runs with.
    pub fn config(&self) -> &RcuConfig {
        &self.inner.config
    }

    /// Crate-internal handle to the shared domain state; the `reclaim`
    /// backends walk the reader registry and reuse the trace ring and
    /// fault configuration through this.
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
            .fetch_or(backend_bit(backend), Ordering::Relaxed);
    }
}

impl Drop for Rcu {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Taking the park lock orders the store above before any waiter's
        // under-lock re-check, so no worker can sleep through the signal.
        drop(
            self.inner
                .park_lock
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        self.inner.park_cv.notify_all();
        let current = std::thread::current().id();
        for h in self.workers.lock().drain(..) {
            // A callback that owns the last strong reference to the domain
            // makes this Drop run on a worker thread itself; joining would
            // self-deadlock, so detach instead (the worker observes the
            // shutdown flag and exits).
            if h.thread().id() == current {
                continue;
            }
            let _ = h.join();
        }
        // Best-effort drain: run remaining callbacks whose grace period can
        // still complete. If a registered reader is still pinned we give up
        // rather than hang (the callbacks leak, which is memory-safe).
        for _ in 0..1024 {
            if self.inner.backlog.load(Ordering::Relaxed) == 0 {
                break;
            }
            let epoch = self.inner.try_advance();
            let mut progressed = false;
            for shard in &self.inner.shards {
                let ready = shard.pop_ready(epoch, usize::MAX);
                let now_ns = pbs_telemetry::now_nanos();
                for cb in ready {
                    self.inner.stats.record_callback_delay(cb.queued_ns, now_ns);
                    (cb.callback)();
                    self.inner.backlog.fetch_sub(1, Ordering::Relaxed);
                    self.inner.stats.record_processed(1);
                    progressed = true;
                }
            }
            if !progressed && epoch == self.inner.try_advance() {
                // No forward progress possible (a reader is still pinned).
                break;
            }
        }
    }
}

/// Per-thread handle to an RCU domain; entry point for read-side critical
/// sections.
///
/// Obtained from [`Rcu::register`]. Intentionally `!Send`: the epoch record
/// it pins is owned by the registering thread.
pub struct RcuThread {
    inner: Arc<Inner>,
    record: Arc<CachePadded<ThreadRecord>>,
    nesting: Cell<u32>,
    /// Set when a traversal re-pinned this thread after an ejection
    /// ([`ReadGuard::repin`]): raw pointers read earlier in the critical
    /// section are no longer protected, so [`ReadGuard::validate`] stays
    /// `false` until a fresh outermost `read_lock`. Values *returned* by
    /// a completed [`ReadGuard::walk`] were checkpointed before the
    /// re-pin and remain trustworthy.
    pub(crate) tainted: Cell<bool>,
    /// Nesting depth of hazard-publishing traversals currently live on
    /// this thread; each depth owns a disjoint block of hazard slots
    /// (see `crate::traverse`).
    pub(crate) walk_depth: Cell<usize>,
    _not_send: PhantomData<*const ()>,
}

impl std::fmt::Debug for RcuThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcuThread")
            .field("nesting", &self.nesting.get())
            .finish()
    }
}

impl RcuThread {
    /// Enters a read-side critical section. Critical sections nest; the
    /// thread is unpinned when the outermost guard drops.
    ///
    /// While any guard is live, objects reachable when the guard was taken
    /// will not be reclaimed by deferred frees in this domain.
    pub fn read_lock(&self) -> ReadGuard<'_> {
        let n = self.nesting.get();
        if n == 0 {
            // A fresh outermost critical section starts untainted: no
            // pointer read under a *previous* pin can leak into it.
            self.tainted.set(false);
            let epoch = self.inner.epoch.load(Ordering::Acquire);
            // The sequence bump must precede the pin store in program
            // order: a batch-domain scanner that observes the pin
            // (Acquire) then reads the sequence is guaranteed at least
            // the value this pin belongs to (newer is conservative).
            // One Relaxed store on the fast path; see `reclaim::hyaline`.
            self.record.begin_pin_seq();
            self.record.pin(epoch);
            // The pin store must be ordered before every critical-section
            // load (StoreLoad). When the advancer issues a process-wide
            // membarrier before each scan, a compiler fence suffices here
            // — no hardware barrier on the fast path (the urcu "memb"
            // idiom; soundness argument in the `membarrier` module).
            // Otherwise this thread pays the classic publication fence on
            // every outermost pin; eliding it (e.g. for same-epoch
            // re-pins) is unsound, because neither the advancer's fence
            // nor its RMW scan can observe a pin still buffered behind
            // reordered critical-section loads.
            if membarrier::readers_elide_fence() {
                compiler_fence(Ordering::SeqCst);
            } else {
                fence(Ordering::SeqCst);
            }
        }
        self.nesting.set(n + 1);
        ReadGuard { thread: self }
    }

    /// Whether the thread is currently inside a read-side critical section.
    pub fn in_critical_section(&self) -> bool {
        self.nesting.get() > 0
    }

    /// Blocks until a full grace period elapses.
    ///
    /// # Panics
    ///
    /// Panics if called from inside a read-side critical section (which
    /// would self-deadlock).
    pub fn synchronize(&self) {
        assert_eq!(
            self.nesting.get(),
            0,
            "synchronize() called inside a read-side critical section"
        );
        self.inner.synchronize();
    }

    /// See [`Rcu::synchronize_expedited`].
    ///
    /// # Panics
    ///
    /// Panics if called from inside a read-side critical section (which
    /// would self-deadlock).
    pub fn synchronize_expedited(&self) {
        assert_eq!(
            self.nesting.get(),
            0,
            "synchronize_expedited() called inside a read-side critical section"
        );
        self.inner.synchronize_expedited();
    }

    /// See [`Rcu::call_rcu`].
    pub fn call_rcu(&self, callback: Box<dyn FnOnce() + Send>) {
        self.inner.enqueue_callback(callback);
    }

    /// See [`Rcu::gp_state`].
    pub fn gp_state(&self) -> GpState {
        GpState(self.inner.epoch.load(Ordering::Acquire))
    }

    /// See [`Rcu::poll`].
    pub fn poll(&self, state: GpState) -> bool {
        self.inner.poll(state)
    }

    /// See [`Rcu::id`].
    pub fn domain_id(&self) -> u64 {
        self.inner.id
    }

    /// Publishes a hazard pointer for `addr` in `slot`
    /// (`slot < `[`HP_SLOTS`][crate::HP_SLOTS]).
    ///
    /// Required by the hazard-pointer reclamation backend: unlike epoch
    /// pinning, holding a [`ReadGuard`] alone does *not* keep an object
    /// alive under that backend — only a published (and then
    /// re-validated) hazard does. The protocol is acquire-validate:
    ///
    /// 1. read the shared pointer,
    /// 2. `protect(slot, addr)`,
    /// 3. re-read the shared pointer; if it changed, go to 1.
    ///
    /// Once validation succeeds the object cannot be reclaimed until the
    /// hazard is cleared: a retire-list scan that missed this hazard must
    /// have run its membarrier before step 2, in which case step 3 runs
    /// after the object's unlink was globally visible and validation
    /// fails. The publication carries the same StoreLoad discipline as
    /// the pin in [`read_lock`](Self::read_lock) — a compiler fence when
    /// scanners membarrier, a full fence otherwise.
    pub fn protect(&self, slot: usize, addr: usize) {
        assert!(slot < HP_SLOTS, "hazard slot {slot} out of range");
        self.record.set_hazard(slot, addr);
        if membarrier::readers_elide_fence() {
            compiler_fence(Ordering::SeqCst);
        } else {
            fence(Ordering::SeqCst);
        }
    }

    /// Clears the hazard pointer in `slot`; the object it protected may
    /// be reclaimed by the next scan.
    pub fn clear_protection(&self, slot: usize) {
        self.record.clear_hazard(slot);
    }

    /// Crate-internal: the registry record backing this thread.
    pub(crate) fn record(&self) -> &Arc<CachePadded<ThreadRecord>> {
        &self.record
    }
}

impl Drop for RcuThread {
    fn drop(&mut self) {
        debug_assert_eq!(
            self.nesting.get(),
            0,
            "RcuThread dropped while inside a read-side critical section"
        );
        self.record.unpin();
        self.record.deactivate();
    }
}

/// RAII guard for a read-side critical section; see [`RcuThread::read_lock`].
#[derive(Debug)]
pub struct ReadGuard<'a> {
    thread: &'a RcuThread,
}

impl<'a> ReadGuard<'a> {
    /// The domain this critical section belongs to; see [`Rcu::id`].
    pub fn domain_id(&self) -> u64 {
        self.thread.inner.id
    }

    /// Crate-internal: the thread this guard pins (traversal machinery).
    pub(crate) fn thread(&self) -> &'a RcuThread {
        self.thread
    }

    /// Whether this critical section is still honored by every
    /// reclamation backend.
    ///
    /// Under the epoch and hazard-pointer backends this is always
    /// `true`. Under the Hyaline-style backend a reader pinned for
    /// longer than the configured ejection threshold *while blocking
    /// sealed batches* may be ejected — its capture is revoked so the
    /// garbage it blocks stays bounded. An ejected reader must not
    /// dereference pointers read earlier in the critical section; the
    /// cooperative contract is to call `validate()` after any
    /// potentially long stall (or before trusting a traversal that
    /// resumed after one) and restart from safe roots when it returns
    /// `false`. This mirrors DEBRA+'s neutralization recovery path with
    /// a poll in place of a signal.
    ///
    /// A guard whose thread was re-pinned by a traversal recovering from
    /// an ejection ([`walk`](Self::walk)) also reports `false` — sticky
    /// until the next outermost `read_lock` — because raw pointers read
    /// before the recovery are just as unprotected as under the ejection
    /// itself. Values *returned* by a completed `walk` are exempt: they
    /// were checkpointed before being handed out.
    pub fn validate(&self) -> bool {
        let record = self.thread.record();
        !self.thread.tainted.get() && !record.ejected_at(record.own_pin_seq())
    }

    /// Whether this guard actually participates in `backend`'s reader
    /// protocol: the [`Rcu`] it pins is watched by a reclamation domain
    /// of that backend (its hazard slots are scanned, its pins are
    /// batch-captured).
    ///
    /// Epoch protection needs no domain cooperation — any pin on the
    /// right registry blocks the epoch — so `Epoch` is always `true`.
    /// Data structures whose allocator defers into a robust backend call
    /// this from their guard checks: a guard from a matching `Rcu` that
    /// no hp/hyaline domain watches would pass a plain domain-id check
    /// while protecting nothing.
    pub fn protects_backend(&self, backend: ReclaimBackend) -> bool {
        backend == ReclaimBackend::Epoch
            || self
                .thread
                .inner
                .attached_backends
                .load(Ordering::Relaxed)
                & backend_bit(backend)
                != 0
    }

    /// Crate-internal ejection recovery: drop the current pin and take a
    /// fresh one (new pin sequence, current epoch), so a traversal can
    /// retry from its root with live protection. Marks the thread
    /// [`tainted`](RcuThread::tainted) — everything read under the old
    /// pin is now suspect — and uses the same publication-fence
    /// discipline as [`RcuThread::read_lock`].
    ///
    /// Between the unpin and the re-pin the thread is momentarily
    /// outside any critical section, which is exactly what lets the
    /// backend release the batches the ejected pin was blocking.
    /// Hazard slots are untouched: hp protection is per-address and
    /// survives the re-pin.
    pub(crate) fn repin(&self) {
        self.thread.tainted.set(true);
        self.thread.record.unpin();
        let epoch = self.thread.inner.epoch.load(Ordering::Acquire);
        self.thread.record.begin_pin_seq();
        self.thread.record.pin(epoch);
        if membarrier::readers_elide_fence() {
            compiler_fence(Ordering::SeqCst);
        } else {
            fence(Ordering::SeqCst);
        }
    }
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let n = self.thread.nesting.get();
        debug_assert!(n > 0);
        if n == 1 {
            // The Release store inside unpin orders prior reads of shared
            // data before the unpin; no fence needed on this side.
            self.thread.record.unpin();
        }
        self.thread.nesting.set(n - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn epoch_advances_without_readers() {
        let rcu = Rcu::new();
        let e0 = rcu.current_epoch();
        rcu.synchronize();
        assert!(rcu.current_epoch() >= e0 + 2);
    }

    #[test]
    fn pinned_reader_blocks_grace_period() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let guard = t.read_lock();
        let state = rcu.gp_state();
        // Give the driver time; the epoch may advance at most once past the
        // reader's pin, never far enough to complete the grace period.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!rcu.poll(state));
        drop(guard);
        rcu.synchronize();
        assert!(rcu.poll(state));
    }

    #[test]
    fn epoch_never_advances_past_pinned_reader() {
        // The advance rule: while a reader is pinned at epoch E the global
        // epoch can reach at most E + 1 (one advance already in flight
        // when the pin landed), and with GRACE_EPOCHS = 2 no grace period
        // observed from inside the critical section may complete while it
        // is still open.
        //
        // Honesty note on coverage: as a wall-clock stress loop on TSO
        // hardware this exercises interleavings, not memory-model
        // reorderings — a protocol that is unsound only under StoreLoad
        // reordering (e.g. a reader pin elided behind a stale epoch) would
        // still pass here on x86. The ordering claim itself rests on the
        // barrier pairing documented in the `membarrier` module (advancer
        // membarrier vs. reader publication fence), not on this test; the
        // advisory CI job additionally runs this under Miri, whose weak
        // memory emulation does explore store-buffer staleness for the
        // fallback (fence) protocol that Miri forces.
        let iters = if cfg!(miri) { 200 } else { 20_000 };
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let stop = Arc::new(AtomicBool::new(false));
        // Churn threads hammer try_advance (via poll) so advances race
        // every pin below; the driver thread adds its own cadence.
        let churn: Vec<_> = (0..2)
            .map(|_| {
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let s = rcu.gp_state();
                        let _ = rcu.poll(s);
                    }
                })
            })
            .collect();
        let t = rcu.register();
        for _ in 0..iters {
            let guard = t.read_lock();
            // The pin epoch is at most `seen` (epoch loads are monotone and
            // `seen` is read after the pin), so global may never exceed
            // seen + 1 while this guard lives.
            let seen = rcu.current_epoch();
            let state = t.gp_state();
            for _ in 0..4 {
                let now = rcu.current_epoch();
                assert!(
                    now <= seen + 1,
                    "epoch advanced past pinned reader: pinned <= {seen}, now {now}"
                );
                assert!(
                    !t.poll(state),
                    "grace period completed inside a read-side critical section"
                );
            }
            drop(guard);
        }
        stop.store(true, Ordering::Relaxed);
        for c in churn {
            c.join().unwrap();
        }
        // Once unpinned, the same state completes normally.
        let state = rcu.gp_state();
        rcu.synchronize();
        assert!(rcu.poll(state));
    }

    #[test]
    fn nested_read_lock_unpins_on_outermost() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let g1 = t.read_lock();
        let g2 = t.read_lock();
        assert!(t.in_critical_section());
        drop(g2);
        assert!(t.in_critical_section());
        let state = rcu.gp_state();
        drop(g1);
        assert!(!t.in_critical_section());
        rcu.synchronize();
        assert!(rcu.poll(state));
    }

    #[test]
    #[should_panic(expected = "read-side critical section")]
    fn synchronize_inside_cs_panics() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let _g = t.read_lock();
        t.synchronize();
    }

    #[test]
    fn call_rcu_runs_after_grace_period() {
        let rcu = Rcu::new();
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            rcu.call_rcu(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            }));
        }
        rcu.barrier();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
        assert_eq!(rcu.callback_backlog(), 0);
    }

    #[test]
    fn callbacks_wait_for_pinned_reader() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let ran = Arc::new(AtomicU32::new(0));
        let guard = t.read_lock();
        {
            let ran = Arc::clone(&ran);
            rcu.call_rcu(Box::new(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            }));
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "callback ran too early");
        drop(guard);
        rcu.barrier();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multithreaded_readers_and_synchronize() {
        let rcu = Arc::new(Rcu::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let t = rcu.register();
                    while !stop.load(Ordering::Relaxed) {
                        let _g = t.read_lock();
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            rcu.synchronize();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert!(rcu.stats().gp_advances >= 100);
    }

    #[test]
    fn drop_drains_pending_callbacks() {
        let ran = Arc::new(AtomicU32::new(0));
        {
            let rcu = Rcu::new();
            for _ in 0..100 {
                let ran = Arc::clone(&ran);
                rcu.call_rcu(Box::new(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                }));
            }
        }
        assert_eq!(ran.load(Ordering::SeqCst), 100);
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
    fn thread_registration_churn() {
        let rcu = Arc::new(Rcu::new());
        // Register and drop many readers; the registry must not grow
        // without bound and grace periods must keep completing.
        for _ in 0..50 {
            let t = rcu.register();
            let g = t.read_lock();
            drop(g);
            drop(t);
        }
        rcu.synchronize();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let rcu = Arc::clone(&rcu);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let t = rcu.register();
                        let _g = t.read_lock();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        rcu.synchronize();
    }

    #[test]
    fn dropping_pinned_thread_releases_grace_period() {
        let rcu = Rcu::new();
        let state = {
            let t = rcu.register();
            let g = t.read_lock();
            let s = rcu.gp_state();
            // Guard dropped before the thread handle, as required.
            drop(g);
            drop(t);
            s
        };
        rcu.synchronize();
        assert!(rcu.poll(state));
    }

    #[test]
    fn stats_count_synchronize_calls() {
        let rcu = Rcu::new();
        rcu.synchronize();
        rcu.synchronize();
        let s = rcu.stats();
        assert_eq!(s.synchronize_calls, 2);
        assert_eq!(s.callbacks_enqueued, 0);
    }

    #[test]
    fn barrier_with_no_callbacks_returns_immediately() {
        let rcu = Rcu::new();
        rcu.barrier();
        assert_eq!(rcu.callback_backlog(), 0);
    }

    #[test]
    fn injected_stalls_delay_but_do_not_block_grace_periods() {
        use pbs_fault::{site, FaultInjector, Schedule};
        let faults = Arc::new(FaultInjector::new(17));
        // Refuse the first 20 advance attempts, then let progress resume:
        // synchronize must still terminate, and the stalls must be counted.
        for n in 1..=20 {
            faults.schedule(site::RCU_ADVANCE, Schedule::Nth(n));
        }
        let rcu = Rcu::with_config(
            RcuConfig::eager().with_fault_injector(Arc::clone(&faults)),
        );
        rcu.synchronize();
        let stats = rcu.stats();
        assert_eq!(stats.injected_gp_stalls, 20);
        assert!(stats.gp_advances >= 2, "grace period completed after stalls");
        assert!(faults.calls(site::RCU_ADVANCE) > 20);
    }

    /// A watchdog-friendly config: fast driver cadence so scans happen
    /// many times per millisecond, explicit stall threshold.
    fn watchdog_config(threshold: Duration) -> RcuConfig {
        RcuConfig::eager().with_stall_threshold(threshold)
    }

    #[test]
    fn reader_under_threshold_never_warns() {
        // A reader pinned for well under the threshold must produce no
        // warning — the watchdog has no false positives on ordinary
        // critical sections.
        let rcu = Rcu::with_config(watchdog_config(Duration::from_millis(200)));
        let t = rcu.register();
        for _ in 0..10 {
            let g = t.read_lock();
            std::thread::sleep(Duration::from_millis(2));
            drop(g);
        }
        // Leave the driver plenty of scans to (wrongly) accuse someone.
        std::thread::sleep(Duration::from_millis(20));
        let stats = rcu.stats();
        assert_eq!(stats.stall_warnings, 0, "false-positive stall warning");
        assert_eq!(stats.active_stalls, 0);
        assert_eq!(stats.longest_stall_ns, 0);
    }

    #[test]
    fn stalled_reader_warns_exactly_once_and_clears_on_unpin() {
        let rcu = Rcu::with_config(watchdog_config(Duration::from_millis(5)));
        let t = rcu.register();
        let guard = t.read_lock();
        // Stall for many thresholds and many scan intervals: still exactly
        // one warning for the single episode.
        std::thread::sleep(Duration::from_millis(60));
        let during = rcu.stats();
        assert_eq!(during.stall_warnings, 1, "one warning per stall episode");
        assert_eq!(during.active_stalls, 1, "stall is active while pinned");
        assert!(
            during.longest_stall_ns >= 5_000_000,
            "stall duration at least the threshold, got {}",
            during.longest_stall_ns
        );
        drop(guard);
        // Wait for the scan after the unpin to clear the episode.
        std::thread::sleep(Duration::from_millis(20));
        let after = rcu.stats();
        assert_eq!(after.stall_warnings, 1, "clearing must not re-warn");
        assert_eq!(after.active_stalls, 0, "stall cleared on unpin");
        // A fresh stall is a fresh episode with its own warning.
        let g2 = t.read_lock();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(rcu.stats().stall_warnings, 2, "new episode warns anew");
        drop(g2);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rcu.stats().active_stalls, 0);
    }

    #[test]
    fn stall_blame_names_the_culprit_exactly_once_per_episode() {
        let rcu = Rcu::with_config(watchdog_config(Duration::from_millis(5)));
        let t = rcu.register();
        let guard = t.read_lock();
        std::thread::sleep(Duration::from_millis(60));
        let live = rcu.blame_active();
        assert_eq!(live.len(), 1, "one live culprit while pinned");
        let culprit = &live[0];
        // The libtest harness names worker threads after the test, so the
        // registration-time capture must surface it.
        assert!(
            culprit.thread_name.contains("stall_blame_names_the_culprit"),
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

    #[test]
    fn expedited_synchronize_completes_with_short_lived_pins() {
        // Concurrent readers that pin briefly and repeatedly must not keep
        // synchronize_expedited from completing promptly.
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let rcu = Arc::clone(&rcu);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let t = rcu.register();
                    while !stop.load(Ordering::Relaxed) {
                        let _g = t.read_lock();
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        for _ in 0..50 {
            rcu.synchronize_expedited();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        let stats = rcu.stats();
        assert_eq!(stats.expedited_gps, 50);
        assert_eq!(stats.synchronize_calls, 50);
        assert!(stats.gp_advances >= 100);
    }

    #[test]
    fn expedite_reports_completion_honestly() {
        let rcu = Rcu::with_config(RcuConfig::eager());
        // Nothing pinned: the bounded drive completes a grace period.
        assert!(rcu.expedite());
        // A pinned reader wedges the epoch: the drive must give up in
        // bounded time and say so rather than hang.
        let t = rcu.register();
        let guard = t.read_lock();
        assert!(!rcu.expedite(), "grace period cannot complete while pinned");
        drop(guard);
        assert!(rcu.stats().expedited_gps >= 2);
    }

    #[test]
    fn expedited_gps_shorten_observed_gp_latency() {
        // In a procrastination-based system nobody blocks on a grace
        // period: a defer-heavy workload just watches the epoch, and sees
        // grace periods complete at the background driver's pace. That is
        // the latency the expedited path exists to cut — a pressured
        // allocator drives the epoch inline instead of waiting out driver
        // ticks. (Blocking `synchronize` is self-driving via `poll`, so it
        // is *not* the slow case here.)
        let slow = RcuConfig {
            driver_interval: Duration::from_millis(25),
            ..RcuConfig::linux_like()
        };
        let rcu = Arc::new(Rcu::with_config(slow));
        // A short-pinning reader, as defer-heavy churn produces.
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let rcu = Arc::clone(&rcu);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let t = rcu.register();
                while !stop.load(Ordering::Relaxed) {
                    drop(t.read_lock());
                    std::thread::yield_now();
                }
            })
        };
        // Passive observer: how long until the current grace period
        // completes if no one drives it (what deferred bins experience).
        let state = rcu.gp_state();
        let t0 = std::time::Instant::now();
        while !state.completed_at(rcu.current_epoch()) {
            std::thread::sleep(Duration::from_micros(50));
        }
        let passive = t0.elapsed();

        // Expedited: drive the epoch inline. The call also records into
        // the exported `gp_latency_ns` histogram.
        let state = rcu.gp_state();
        let t0 = std::time::Instant::now();
        rcu.synchronize_expedited();
        let expedited = t0.elapsed();
        assert!(state.completed_at(rcu.current_epoch()));

        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();

        // Driver pace is >= 25 ms; the inline drive is microseconds. A 2x
        // margin keeps scheduler noise from ever flaking this.
        assert!(
            expedited * 2 < passive,
            "expedited {expedited:?} should be well under driver-paced {passive:?}"
        );
        let telemetry = rcu.telemetry();
        let gp = telemetry
            .histograms
            .iter()
            .find(|h| h.name == "gp_latency_ns")
            .expect("gp_latency_ns exported");
        assert_eq!(gp.hist.count, 1);
        assert!(
            Duration::from_nanos(gp.hist.sum) * 2 < passive,
            "recorded expedited gp latency {} ns should undercut driver pace {passive:?}",
            gp.hist.sum
        );
    }

    #[test]
    #[should_panic(expected = "read-side critical section")]
    fn synchronize_expedited_inside_cs_panics() {
        let rcu = Rcu::new();
        let t = rcu.register();
        let _g = t.read_lock();
        t.synchronize_expedited();
    }

    #[test]
    fn gp_state_is_monotone_across_synchronize() {
        let rcu = Rcu::new();
        let mut prev = rcu.gp_state();
        for _ in 0..5 {
            rcu.synchronize();
            let next = rcu.gp_state();
            assert!(next > prev);
            prev = next;
        }
    }
}
