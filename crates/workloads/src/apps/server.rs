//! Sharded multi-reactor server workload: production-shaped traffic with
//! overload protection and gating graceful-degradation checks.
//!
//! This is the ROADMAP's million-connection scenario. N reactor shards
//! (one thread each) drive a simulated epoll loop over a large population
//! of concurrent connections on [`pbs_simnet::ShardedNet`]; every piece of
//! per-connection server state — the transport's sock/filp/selinux
//! objects, a parse-state object, a parse buffer, per-request scratch —
//! is allocated through the Prudence or SLUB caches, and connection
//! teardown frees through `free_deferred`, exactly as kernel connection
//! teardown defers through RCU.
//!
//! The run moves through phases; each one's clock starts only once every
//! reactor has acknowledged it:
//!
//! 1. **Establish** — dial/accept until the target population is live.
//! 2. **Baseline** — a Zipfian request mix over the open connections.
//! 3. **Storm** — the DoS burst: the traffic engine over-dials the listen
//!    queues (beyond backlog capacity), mixes in slowloris attackers that
//!    accept and then never complete a request, churns established
//!    connections, and (optionally) parks one reactor shard inside a
//!    read-side critical section for the whole storm — the stalled-reader
//!    contrast from the reclamation-backend matrix, now embedded in a
//!    live server.
//! 4. **Recovery** — the attack stops; deadlines evict the attackers, the
//!    dial pump restores the population, and service must return to
//!    baseline.
//!
//! Overload protection is layered the way real servers do it:
//!
//! * **accept backpressure** — the bounded per-shard listen queue sheds
//!   dials beyond capacity before any allocation happens;
//! * **timeout wheels** — every connection carries an idle (honest) or
//!   hard request (attacker/slow-read) deadline on a per-shard
//!   [`TimerWheel`](pbs_simnet::TimerWheel); expiry evicts;
//! * **retry with backoff** — transient allocation failures are retried a
//!   bounded number of times with exponential backoff, each attempt
//!   re-entering the allocator's staged OOM recovery ladder underneath;
//! * **load shedding** — when any workload cache reports hard pressure
//!   (`pressure_level == 2`, the PR 5 deferred-backlog watermark), shards
//!   stop accepting, drain their listen queues unserved and evict idle
//!   connections until pressure recedes;
//! * **connection cap** — a shard never holds more than
//!   `MAX_CONNS_FACTOR ×` its share of the target population.
//!
//! Degradation is *gating*: [`ServerReport::verdict`] passes only if
//! p99.9 alloc-path latency stayed under the bound, overload was shed and
//! counted rather than panicked, the garbage bound held under the robust
//! reclamation backends while a shard was parked, service recovered to
//! baseline after the storm, and teardown returned to
//! `deferred_outstanding == 0` with every page back at the allocator.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pbs_alloc_api::engine::EngineConfig;
use pbs_alloc_api::{ObjPtr, ObjectAllocator};
use pbs_fault::{site, FaultInjector, Schedule};
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::RcuConfig;
use pbs_simnet::{ConnId, NetError, NetShard, ShardConfig, ShardedNet};
use pbs_telemetry::{HistogramSnapshot, Percentiles, ShardGauges, ShardRow, ShardSet};

use crate::harness::{audit_teardown, garbage_contrast_gate, join, StopOnDrop};
use crate::{hardened_bed, AllocatorKind, RunVerdict, Testbed};

/// Parse-state object per connection (request line, header cursor).
const CONN_STATE_SIZE: usize = 192;
/// Per-connection parse buffer.
const PARSE_BUF_SIZE: usize = 512;
/// Per-request scratch object (response head, iovec stand-in).
const SCRATCH_SIZE: usize = 256;

/// Zipf exponent of the request mix (≈1.1 is classic web-trace shape).
const ZIPF_S: f64 = 1.1;
/// Zipf catalog size (distinct request keys).
const KEYS: usize = 256;
/// Request-service attempts per reactor iteration.
const REQUEST_BUDGET: usize = 128;
/// Fraction of storm dials that are slowloris attackers.
pub const ATTACKER_FRACTION: f64 = 0.5;
/// Probability an accept is refused by the `net.accept` fault site.
const ACCEPT_FAULT_P: f64 = 0.002;
/// Probability a read stalls via the `net.read_stall` fault site.
const READ_STALL_FAULT_P: f64 = 0.01;
/// Bounded retries per allocation before the connection is dropped.
const ALLOC_RETRY_BUDGET: u32 = 6;
/// A shard stops accepting once it holds this multiple of its share of
/// the target population.
const MAX_CONNS_FACTOR: usize = 2;
/// Memory-recovery gate: once reclamation catches up after the storm,
/// used bytes must be at most this multiple of the established
/// baseline. Not 1.0 — randomly evicting half the storm peak leaves a
/// survivor on almost every slab, and that fragmentation is real
/// server behaviour, not a leak (the teardown gate still demands an
/// exact return to zero, and a true leak compounds far past any small
/// constant).
const RECOVERY_FACTOR: f64 = 4.0;

/// Run phases, stored in one shared atomic, in the order the driver
/// enters them; a phase indexes [`PHASE_NAMES`] and the driver's rows.
const PHASE_ESTABLISH: u8 = 0;
const PHASE_BASELINE: u8 = 1;
const PHASE_STORM: u8 = 2;
const PHASE_RECOVERY: u8 = 3;
const PHASE_SHUTDOWN: u8 = 4;
const PHASE_NAMES: [&str; 5] = ["establish", "baseline", "storm", "recovery", "shutdown"];

/// Dial cookies: what kind of client is knocking.
const COOKIE_HONEST: u64 = 0;
const COOKIE_ATTACKER: u64 = 1;

/// Parameters for one server run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerParams {
    /// Reactor shards (threads; also the testbed CPU-slot count).
    pub shards: usize,
    /// Target concurrent connections across all shards.
    pub connections: usize,
    /// Seed for the fault plan and every traffic RNG.
    pub seed: u64,
    /// Baseline-phase length.
    pub baseline_ms: u64,
    /// Storm-phase length.
    pub storm_ms: u64,
    /// Recovery-phase length.
    pub recovery_ms: u64,
    /// Per-shard listen-queue capacity.
    pub backlog_cap: usize,
    /// Accepts per reactor iteration.
    pub accept_budget: usize,
    /// Honest connections churned (closed + re-dialed) per storm
    /// iteration per shard.
    pub churn_per_iter: usize,
    /// Idle deadline for honest connections (refreshed on activity).
    pub idle_timeout_ms: u64,
    /// Hard request deadline for connections that never complete one
    /// (slowloris eviction).
    pub slow_deadline_ms: u64,
    /// Probability of an injected OOM per slab-grow attempt (exercises
    /// the retry-with-backoff path; 0 leaves allocation failure to any
    /// real memory limit).
    pub grow_fault_p: f64,
    /// Park the last shard in a read-side critical section for the whole
    /// storm (the stalled reader the robust backends must tolerate).
    pub stalled_shard: bool,
    /// Hard page-allocator limit; `None` for uncapped runs.
    pub limit_bytes: Option<usize>,
    /// Reclamation backend override; `None` honours `PBS_RECLAIM`.
    pub reclaim: Option<ReclaimBackend>,
    /// Garbage bound (deferred objects outstanding, sampled during the
    /// storm) the robust backends must hold with a shard parked.
    pub garbage_bound: usize,
    /// Require the epoch backend to *exceed* the garbage bound in the
    /// same position (the documented contrast; needs storm churn high
    /// enough to be meaningful, so off by default at test scale).
    pub require_epoch_contrast: bool,
    /// p99.9 bound on the alloc-path latency histogram, in nanoseconds.
    /// Generous by default: on an oversubscribed CI box a timed window
    /// can absorb a scheduler timeslice, and the gate exists to catch
    /// wedges (seconds), not preemption (tens of milliseconds).
    pub p999_alloc_bound_ns: u64,
    /// Cache pressure watermarks (soft, hard) applied to both allocator
    /// tunings; `None` keeps allocator defaults. Tests lower these to
    /// make the load-shedding trip reachable at small scale.
    pub pressure_watermarks: Option<(usize, usize)>,
    /// The run's patience for building a population: caps the establish
    /// phase, each phase's reactor handshake and the post-storm rebuild.
    pub establish_timeout: Duration,
}

impl Default for ServerParams {
    fn default() -> Self {
        Self {
            shards: 4,
            connections: 100_000,
            seed: 1,
            baseline_ms: 200,
            storm_ms: 400,
            recovery_ms: 400,
            backlog_cap: 1024,
            accept_budget: 512,
            churn_per_iter: 64,
            idle_timeout_ms: 150,
            slow_deadline_ms: 60,
            grow_fault_p: 0.0,
            stalled_shard: true,
            limit_bytes: None,
            reclaim: None,
            garbage_bound: 4096,
            require_epoch_contrast: false,
            p999_alloc_bound_ns: 1_000_000_000,
            pressure_watermarks: None,
            establish_timeout: Duration::from_secs(60),
        }
    }
}

impl ServerParams {
    /// Small-scale parameters for tests and the example: two shards, a
    /// few thousand connections, sub-second phases.
    pub fn smoke() -> Self {
        Self {
            shards: 2,
            connections: 3_000,
            baseline_ms: 60,
            storm_ms: 150,
            recovery_ms: 200,
            backlog_cap: 256,
            accept_budget: 128,
            churn_per_iter: 32,
            idle_timeout_ms: 80,
            slow_deadline_ms: 40,
            establish_timeout: Duration::from_secs(20),
            ..Self::default()
        }
    }

    /// The full-scale run `server_bench` defaults to: a million
    /// connections over eight shards, multi-second phases.
    pub fn full_scale() -> Self {
        Self {
            shards: 8,
            connections: 1_000_000,
            baseline_ms: 2_000,
            storm_ms: 3_000,
            recovery_ms: 4_000,
            establish_timeout: Duration::from_secs(600),
            ..Self::default()
        }
    }

    /// The `server_bench` flags, beyond the ones a replay line always
    /// spells out, that reproduce these parameters: `--smoke` when the
    /// un-flagged sizing is [`smoke`](Self::smoke)'s, then whatever
    /// differs from that base. Each flag has a leading space.
    fn replay_flags(&self) -> String {
        use std::fmt::Write;
        let smoke = self.backlog_cap == Self::smoke().backlog_cap;
        let base = if smoke { Self::smoke() } else { Self::full_scale() };
        let mut flags = String::new();
        if smoke {
            flags.push_str(" --smoke");
        }
        if !self.stalled_shard {
            flags.push_str(" --no-stall");
        }
        for (flag, mine, base) in [
            ("--baseline-ms", self.baseline_ms, base.baseline_ms),
            ("--storm-ms", self.storm_ms, base.storm_ms),
            ("--recovery-ms", self.recovery_ms, base.recovery_ms),
            ("--garbage-bound", self.garbage_bound as u64, base.garbage_bound as u64),
        ] {
            if mine != base {
                let _ = write!(flags, " {flag} {mine}");
            }
        }
        flags
    }

    /// Rescales deadlines to the connection population. The Zipf service
    /// loop revisits a given connection roughly every `population /
    /// (shards * REQUEST_BUDGET)` iterations, so past ~20k connections a
    /// sub-second idle deadline expires before the refresh arrives and
    /// honest connections are mass-evicted at the accept-rate x timeout
    /// equilibrium — the population can never hold its target. Real
    /// servers at that scale run idle timeouts of minutes; here "longer
    /// than the whole run" models the same regime, while the slowloris
    /// deadline (`slow_deadline_ms`) keeps the timer wheel's eviction
    /// path exercised. The budget includes the worst-case establish
    /// window: deadlines armed while the population is still being
    /// built must not come due mid-phase, or early-established
    /// connections are reaped while the late ones are still dialing.
    /// Small runs are returned unchanged so tests still cover
    /// honest-idle eviction.
    #[must_use]
    pub fn scaled_for_population(mut self) -> Self {
        if self.connections > 20_000 {
            let run_ms = self.baseline_ms + self.storm_ms + self.recovery_ms;
            let establish_ms = self.establish_timeout.as_millis() as u64;
            self.idle_timeout_ms = self.idle_timeout_ms.max(establish_ms + 2 * run_ms);
        }
        self
    }
}

/// Outcome of one server run; `verdict.violations` is empty iff every
/// degradation gate held.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerReport {
    /// Who ran, what the teardown audit measured and every gate violated.
    /// At least one stall warning is expected when a shard is parked.
    pub verdict: RunVerdict,
    /// Reactor shards.
    pub shards: usize,
    /// Target concurrent connections.
    pub target_connections: usize,
    /// Peak live connections observed.
    pub established_peak: usize,
    /// Live connections at the end of recovery.
    pub open_at_end: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Totals across shards over the whole run.
    pub totals: ShardRow,
    /// Per-shard rows at the end of the run.
    pub per_shard: Vec<ShardRow>,
    /// Counter deltas for the baseline phase.
    pub baseline: ShardRow,
    /// Counter deltas for the storm phase.
    pub storm: ShardRow,
    /// Counter deltas for the recovery phase.
    pub recovery: ShardRow,
    /// Alloc-path latency percentiles (state/buffer/scratch allocations,
    /// including retries and ladder climbs).
    pub alloc_latency: Option<Percentiles>,
    /// Grace-period latency percentiles from the RCU domain's telemetry
    /// (recorded by the prober's blocking `synchronize` calls).
    pub gp_latency: Option<Percentiles>,
    /// The full alloc-path histogram, for trajectory files.
    pub alloc_hist: HistogramSnapshot,
    /// Whether any cache reported hard pressure during the run.
    pub pressure_hard_seen: bool,
    /// Maximum deferred objects outstanding sampled during the storm.
    pub max_garbage_storm: usize,
    /// The bound robust backends are held to.
    pub garbage_bound: usize,
    /// Whether a shard was parked through the storm.
    pub stalled_shard: bool,
    /// Handshakes the `net.accept` fault site refused.
    pub injected_accept_refusals: u64,
    /// Reads the `net.read_stall` fault site stalled.
    pub injected_read_stalls: u64,
    /// Page-allocator bytes used once the population was established.
    pub baseline_used_bytes: usize,
    /// Page-allocator bytes used at the end of recovery.
    pub recovered_used_bytes: usize,
    /// `server_bench` flags beyond seed, shards, connections, allocator
    /// and backend (see [`replay_command`](Self::replay_command)).
    pub replay_flags: String,
}

impl ServerReport {
    /// Multi-line human summary.
    pub fn render(&self) -> String {
        let percentiles = |p: Option<Percentiles>| {
            p.map_or("n/a".to_owned(), |p| {
                format!("p50 {} / p99 {} / p99.9 {} ns", p.p50, p.p99, p.p999)
            })
        };
        let (alloc, gp) = (percentiles(self.alloc_latency), percentiles(self.gp_latency));
        format!(
            "server[{} {} seed={} shards={}]: {} conns peak (target {}), \
             {} requests, shed {} accepts + {} conns, {} timeouts, {} read stalls, \
             {} retries/{} drops, alloc {alloc}, gp {gp}, \
             garbage max {}/{} bound, {} warns, {} expedited, \
             mem {}/{} KiB baseline/recovered (peak {} KiB), {} panics — {}",
            self.verdict.allocator,
            self.verdict.reclaim_backend,
            self.verdict.seed,
            self.shards,
            self.established_peak,
            self.target_connections,
            self.totals.requests,
            self.totals.shed_accepts,
            self.totals.shed_conns,
            self.totals.timeouts,
            self.totals.read_stalls,
            self.totals.alloc_retries,
            self.totals.alloc_drops,
            self.max_garbage_storm,
            self.garbage_bound,
            self.verdict.stall_warnings,
            self.verdict.expedited_gps,
            self.baseline_used_bytes >> 10,
            self.recovered_used_bytes >> 10,
            self.verdict.peak_bytes >> 10,
            self.verdict.panics,
            if self.verdict.passed() { "OK" } else { "FAILED" },
        )
    }

    /// One-line command reproducing this run.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p pbs-workloads --bin server_bench -- \
             --seed {} --shards {} --connections {} --allocator {} --reclaim {}{}",
            self.verdict.seed,
            self.shards,
            self.target_connections,
            self.verdict.allocator,
            self.verdict.reclaim_backend,
            self.replay_flags
        )
    }
}

/// Precomputed-CDF Zipf sampler (the `rand` shim has no Zipf
/// distribution). Rank 0 is the most popular key.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let n = n.max(1);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One established connection's server-side state.
struct ConnEntry {
    conn: ConnId,
    state: ObjPtr,
    buf: ObjPtr,
    attacker: bool,
    deadline: u64,
}

/// Per-shard reactor bookkeeping: slab-style entry vector plus an id
/// index, so random service picks are O(1) and closes are swap-remove.
#[derive(Default)]
struct ConnTable {
    entries: Vec<ConnEntry>,
    index: HashMap<u64, usize>,
}

impl ConnTable {
    fn insert(&mut self, e: ConnEntry) {
        self.index.insert(e.conn.0, self.entries.len());
        self.entries.push(e);
    }

    /// Removes and returns the entry at `i`.
    fn take(&mut self, i: usize) -> ConnEntry {
        let e = self.entries.swap_remove(i);
        self.index.remove(&e.conn.0);
        if let Some(moved) = self.entries.get(i) {
            self.index.insert(moved.conn.0, i);
        }
        e
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One server run's shared state: the bed, the caches and the net the
/// reactors serve from, their gauges, and what the driver publishes to
/// them — the phase and the cache pressure.
struct ServerRun<'p> {
    params: &'p ServerParams,
    bed: Testbed,
    faults: Arc<FaultInjector>,
    state_cache: Arc<dyn ObjectAllocator>,
    buf_cache: Arc<dyn ObjectAllocator>,
    scratch_cache: Arc<dyn ObjectAllocator>,
    net: ShardedNet,
    gauges: ShardSet,
    zipf: Zipf,
    /// The run phase (`PHASE_*`), published by the driver.
    phase: AtomicU8,
    /// Per reactor, the last phase it acknowledged: it ran one full
    /// iteration in it or, parked, holds its pin. A phase's clock starts
    /// only once every reactor has acknowledged it.
    acked: Vec<AtomicU8>,
    /// The worst per-cache pressure level, published by the driver's
    /// sampler so reactors decide load shedding without each one
    /// snapshotting cache stats.
    pressure: AtomicUsize,
    /// Each shard's share of the target population.
    target_per_shard: usize,
    start: Instant,
}

/// What the driver records: shard counters at the end of each phase before
/// shutdown (indexed by phase), its samples and its violations.
#[derive(Default)]
struct Timeline {
    rows: [ShardRow; 4],
    baseline_used_bytes: usize,
    recovered_used_bytes: usize,
    established_peak: usize,
    open_at_end: usize,
    max_garbage_storm: usize,
    pressure_hard_seen: bool,
    violations: Vec<String>,
}

/// Runs the server scenario on one allocator and checks every gate.
pub fn run_server(kind: AllocatorKind, params: &ServerParams) -> ServerReport {
    let run = ServerRun::new(kind, params);
    let mut t = Timeline::default();
    let ((), alloc_hist, panics) = run.serve(|run| run.drive(&mut t));
    let (bed, faults, gauges) = (&run.bed, &run.faults, &run.gauges);
    // Everything is closed: drain the deferred backlog completely, then
    // drop the net layer and caches — every page must be back at the
    // allocator.
    let owners = (run.net, run.state_cache, run.buf_cache, run.scratch_cache);
    let (verdict, _) = audit_teardown(bed, faults, panics, t.violations, owners);
    let [establish_end, baseline_end, storm_end, recovery_end] = t.rows;
    let mut report = ServerReport {
        verdict,
        shards: gauges.len(),
        target_connections: params.connections,
        established_peak: t.established_peak,
        open_at_end: t.open_at_end,
        elapsed_secs: run.start.elapsed().as_secs_f64(),
        totals: gauges.totals(),
        per_shard: gauges.rows(),
        baseline: baseline_end.delta(&establish_end),
        storm: storm_end.delta(&baseline_end),
        recovery: recovery_end.delta(&storm_end),
        alloc_latency: alloc_hist.percentiles(),
        gp_latency: bed
            .rcu()
            .telemetry()
            .histogram("gp_latency_ns")
            .and_then(HistogramSnapshot::percentiles),
        alloc_hist,
        pressure_hard_seen: t.pressure_hard_seen,
        max_garbage_storm: t.max_garbage_storm,
        garbage_bound: params.garbage_bound,
        stalled_shard: params.stalled_shard,
        injected_accept_refusals: faults.injected(site::NET_ACCEPT),
        injected_read_stalls: faults.injected(site::NET_READ_STALL),
        baseline_used_bytes: t.baseline_used_bytes,
        recovered_used_bytes: t.recovered_used_bytes,
        replay_flags: params.replay_flags(),
    };
    gates(&mut report, params, kind, bed.reclaim_backend(), run.pressure.into_inner());
    report
}

impl<'p> ServerRun<'p> {
    fn new(kind: AllocatorKind, params: &'p ServerParams) -> Self {
        let faults = Arc::new(FaultInjector::new(params.seed));
        faults.schedule(site::NET_ACCEPT, Schedule::Probability(ACCEPT_FAULT_P));
        faults.schedule(site::NET_READ_STALL, Schedule::Probability(READ_STALL_FAULT_P));
        if params.grow_fault_p > 0.0 {
            faults.schedule(site::SLAB_GROW, Schedule::Probability(params.grow_fault_p));
        }
        // The watchdog threshold sits well under the storm length so a
        // parked reactor is blamed while the storm is still running.
        let stall_threshold = Duration::from_millis((params.storm_ms / 4).clamp(5, 50));
        let bed = hardened_bed(
            kind,
            params.shards,
            RcuConfig::eager().with_stall_threshold(stall_threshold),
            params.limit_bytes,
            Some(Arc::clone(&faults)),
            params
                .pressure_watermarks
                .map(|(soft, hard)| EngineConfig::new(params.shards).with_watermarks(soft, hard)),
            params.reclaim,
        );
        let state_cache = bed.create_cache("conn_state", CONN_STATE_SIZE);
        let buf_cache = bed.create_cache("parse_buf", PARSE_BUF_SIZE);
        let scratch_cache = bed.create_cache("req_scratch", SCRATCH_SIZE);
        let nshards = params.shards.max(1);
        let target_per_shard = params.connections.div_ceil(nshards);
        let shard_config = ShardConfig {
            backlog_cap: params.backlog_cap,
            conn_buckets: (target_per_shard * MAX_CONNS_FACTOR / 4)
                .next_power_of_two()
                .clamp(256, 1 << 18),
            wheel_slots: 256,
            wheel_granularity: (params.idle_timeout_ms / 128).max(1),
        };
        let net = ShardedNet::new(bed.factory(), nshards, shard_config, Some(Arc::clone(&faults)));
        Self {
            params,
            bed,
            faults,
            state_cache,
            buf_cache,
            scratch_cache,
            net,
            gauges: ShardSet::new(nshards),
            zipf: Zipf::new(KEYS, ZIPF_S),
            phase: AtomicU8::new(PHASE_ESTABLISH),
            acked: (0..nshards).map(|_| AtomicU8::new(PHASE_ESTABLISH)).collect(),
            pressure: AtomicUsize::new(0),
            target_per_shard,
            start: Instant::now(),
        }
    }

    /// Runs `driver` on this thread beside the grace-period prober and one
    /// reactor per shard, then raises shutdown — on unwind too, so a
    /// panicking driver fails the run instead of hanging it — and joins
    /// them. Returns the driver's result, the reactors' merged alloc-path
    /// histogram and how many of those threads panicked.
    fn serve<R>(&self, driver: impl FnOnce(&Self) -> R) -> (R, HistogramSnapshot, u64) {
        std::thread::scope(|s| {
            let shutdown = StopOnDrop(|| self.phase.store(PHASE_SHUTDOWN, Ordering::Release));
            // Grace-period prober: periodic blocking `synchronize()` calls
            // both bound the deferred backlog and populate the
            // `gp_latency_ns` histogram the report quotes. Under an
            // epoch-backend storm with a parked shard, one of these calls
            // blocks for most of the storm — that tail is the contrast the
            // report exists to show.
            let prober = std::thread::Builder::new()
                .name("server-gp-prober".to_owned())
                .spawn_scoped(s, || {
                    while self.phase.load(Ordering::Acquire) != PHASE_SHUTDOWN {
                        self.bed.rcu().synchronize();
                        std::thread::sleep(Duration::from_millis(3));
                    }
                })
                .expect("spawn gp prober");
            let reactors: Vec<_> = (0..self.acked.len())
                .map(|idx| {
                    std::thread::Builder::new()
                        .name(format!("server-shard-{idx}"))
                        .spawn_scoped(s, move || Reactor::new(self, idx).run())
                        .expect("spawn reactor shard")
                })
                .collect();
            let out = driver(self);
            drop(shutdown);
            let mut hist = HistogramSnapshot::default();
            let mut panics = 0;
            for reactor_hist in reactors.into_iter().filter_map(|r| join(r, &mut panics)) {
                hist.merge(&reactor_hist);
            }
            join(prober, &mut panics);
            (out, hist, panics)
        })
    }

    /// The driver: every phase in order. The establish budget, the run's
    /// patience for building a population, also bounds each phase's
    /// handshake and the post-storm rebuild.
    fn drive(&self, t: &mut Timeline) {
        let p = self.params;
        let patience = p.establish_timeout;
        self.establish(t, patience);
        self.hold(t, PHASE_BASELINE, Duration::from_millis(p.baseline_ms), patience);
        self.hold(t, PHASE_STORM, Duration::from_millis(p.storm_ms), patience);
        self.recover(t, Duration::from_millis(p.recovery_ms), patience);
        self.shutdown(t);
    }

    /// Publishes the worst cache pressure and records the peaks the gates
    /// read; deferred garbage only during the storm.
    fn sample(&self, t: &mut Timeline) {
        let level = self
            .state_cache
            .stats()
            .pressure_level
            .max(self.buf_cache.stats().pressure_level)
            .max(self.scratch_cache.stats().pressure_level);
        self.pressure.store(level, Ordering::Relaxed);
        t.pressure_hard_seen |= level >= 2;
        t.established_peak = t.established_peak.max(self.net.connection_count());
        if self.phase.load(Ordering::Relaxed) == PHASE_STORM {
            t.max_garbage_storm = t.max_garbage_storm.max(self.bed.deferred_outstanding());
        }
    }

    /// The driver's one wait: samples every 2 ms until `done` holds or
    /// `deadline` passes, and returns whether `done` held.
    fn wait(&self, t: &mut Timeline, deadline: Instant, done: impl Fn(&Self) -> bool) -> bool {
        loop {
            self.sample(t);
            if done(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Whether at least `percent` of the target population is connected.
    fn populated(&self, percent: usize) -> bool {
        self.net.connection_count() * 100 >= self.params.connections * percent
    }

    /// Establish: the reactors dial and accept until the population is
    /// (nearly) at target, for at most `budget`.
    fn establish(&self, t: &mut Timeline, budget: Duration) {
        if !self.wait(t, Instant::now() + budget, |run| run.populated(99)) {
            t.violations.push(format!(
                "establish timed out: {}/{} connections after {budget:?}",
                self.net.connection_count(),
                self.params.connections
            ));
        }
        t.baseline_used_bytes = self.bed.pages().used_bytes();
        t.rows[usize::from(PHASE_ESTABLISH)] = self.gauges.totals();
    }

    /// Enters `phase` and, once every reactor has acknowledged it (a
    /// violation naming the phase if that takes past `ack_budget`), holds
    /// it for `window`.
    fn hold(&self, t: &mut Timeline, phase: u8, window: Duration, ack_budget: Duration) {
        self.phase.store(phase, Ordering::Release);
        let acked = |run: &Self| run.acked.iter().all(|a| a.load(Ordering::Acquire) >= phase);
        if !self.wait(t, Instant::now() + ack_budget, acked) {
            t.violations.push(format!(
                "reactors never acknowledged the {} phase within {ack_budget:?}",
                PHASE_NAMES[usize::from(phase)]
            ));
        }
        self.wait(t, Instant::now() + window, |_| false);
        t.rows[usize::from(phase)] = self.gauges.totals();
    }

    /// Recovery: the attack stops; deadlines evict the attackers and the
    /// dial pumps rebuild the population. `window` is a floor, not the
    /// verdict: refilling the post-storm deficit is accept-throughput
    /// bound, so on a starved machine the pumps may still be mid-refill
    /// when it closes. The population gets up to `grace` more to come
    /// back, and the recovery gate judges what the server converged to,
    /// not scheduler luck.
    fn recover(&self, t: &mut Timeline, window: Duration, grace: Duration) {
        self.hold(t, PHASE_RECOVERY, window, grace);
        self.wait(t, Instant::now() + grace, |run| run.populated(95));
        t.rows[usize::from(PHASE_RECOVERY)] = self.gauges.totals();
        t.open_at_end = self.net.connection_count();
    }

    /// Shutdown: memory recovery is judged after reclamation catches up —
    /// under procrastinated reclamation the storm's deferred backlog
    /// drains lazily, so the gate measures the settled state, not the
    /// race between the sampler and the collector. Service is still up
    /// while these drains wait: the reactors stop once the driver returns
    /// and [`serve`](Self::serve) raises `PHASE_SHUTDOWN`.
    fn shutdown(&self, t: &mut Timeline) {
        self.bed.quiesce();
        t.recovered_used_bytes = self.bed.pages().used_bytes();
    }
}

/// The degradation gates, judged on the finished report.
/// `recovered_pressure` is the last pressure level the driver sampled.
fn gates(
    r: &mut ServerReport,
    params: &ServerParams,
    kind: AllocatorKind,
    backend: ReclaimBackend,
    recovered_pressure: usize,
) {
    let violations = &mut r.verdict.violations;
    if r.storm.shed_accepts == 0 {
        violations.push("storm never tripped accept backpressure (shed_accepts == 0)".into());
    }
    if r.totals.timeouts == 0 {
        violations.push("deadline wheel never evicted a connection (timeouts == 0)".into());
    }
    match r.alloc_latency {
        None => violations.push("no alloc-path latency samples recorded".into()),
        Some(p) if p.p999 > params.p999_alloc_bound_ns => violations.push(format!(
            "alloc-path p99.9 {} ns exceeds bound {} ns",
            p.p999, params.p999_alloc_bound_ns
        )),
        Some(_) => {}
    }
    if params.stalled_shard {
        if r.verdict.stall_warnings == 0 {
            violations.push("parked shard never tripped the stall watchdog".into());
        }
        violations.extend(garbage_contrast_gate(
            backend,
            r.max_garbage_storm,
            params.garbage_bound,
            params.require_epoch_contrast,
        ));
    }
    if r.recovery.requests == 0 {
        violations.push("no requests served during recovery".into());
    }
    if r.open_at_end * 100 < params.connections * 90 {
        violations.push(format!(
            "service did not recover: {}/{} connections at end",
            r.open_at_end, params.connections
        ));
    }
    if recovered_pressure >= 2 {
        violations.push(format!(
            "pressure still hard ({recovered_pressure}) at the end of recovery"
        ));
    }
    // The page-level baseline gate is the *baseline allocator's* contract:
    // SLUB shrinks empty slabs back to the page allocator once the drain
    // completes. Prudence deliberately retains latent slabs for reuse —
    // holding pages after the storm is the procrastination under test, so
    // its memory-recovery evidence is the drained deferred backlog and the
    // exact teardown-to-zero gates instead.
    // How fragmented the survivors end up is seed- and timing-dependent,
    // so the bound is the looser of "factor × baseline" and "gave back at
    // least half the storm overshoot" — either way a run that returns
    // nothing (recovered ≈ peak) fails.
    let (baseline, recovered) = (r.baseline_used_bytes, r.recovered_used_bytes);
    let recovery_bound = ((baseline as f64 * RECOVERY_FACTOR) as usize)
        .max(baseline + (r.verdict.peak_bytes - baseline) / 2);
    if kind == AllocatorKind::Slub && recovered > recovery_bound {
        violations.push(format!(
            "memory did not return to baseline: {recovered} used vs \
             {baseline} baseline (bound {recovery_bound})"
        ));
    }
}

/// One reactor shard. Its alloc-path histogram is worker-local and always
/// recorded: the p99.9 gate must not depend on the global trace toggle.
struct Reactor<'r> {
    run: &'r ServerRun<'r>,
    idx: usize,
    shard: &'r NetShard,
    gauges: &'r ShardGauges,
    rng: StdRng,
    hist: HistogramSnapshot,
    table: ConnTable,
    expired: Vec<(u64, u64)>,
}

impl<'r> Reactor<'r> {
    fn new(run: &'r ServerRun<'r>, idx: usize) -> Self {
        Self {
            run,
            idx,
            shard: run.net.shard(idx),
            gauges: run.gauges.shard(idx),
            rng: StdRng::seed_from_u64(run.params.seed ^ ((idx as u64) << 17)),
            hist: HistogramSnapshot::default(),
            table: ConnTable::default(),
            expired: Vec::new(),
        }
    }

    /// Steps until shutdown, acknowledging each phase after a full
    /// iteration in it, then closes every connection still open and
    /// returns the alloc-path histogram. When the run stalls a shard, the
    /// last one parks for the whole storm in one continuous read-side pin
    /// instead: its connections go unserviced, and reclamation must cope
    /// (robust backends) or visibly stall and be blamed (epoch).
    fn run(mut self) -> HistogramSnapshot {
        let run = self.run;
        let parks = run.params.stalled_shard && self.idx == run.acked.len() - 1;
        let ack = &run.acked[self.idx];
        let reader = run.bed.rcu().register();
        loop {
            let ph = run.phase.load(Ordering::Acquire);
            if ph == PHASE_SHUTDOWN {
                break;
            }
            // Phases only advance, so the shard parks at most once.
            if ph == PHASE_STORM && parks {
                let guard = reader.read_lock();
                ack.store(PHASE_STORM, Ordering::Release);
                while run.phase.load(Ordering::Acquire) == PHASE_STORM {
                    std::thread::sleep(Duration::from_millis(1));
                }
                drop(guard);
                continue;
            }
            self.step(ph);
            ack.store(ph, Ordering::Release);
            std::thread::yield_now();
        }
        for e in std::mem::take(&mut self.table.entries) {
            self.close(e);
        }
        self.gauges.set_open(0);
        self.hist
    }

    fn step(&mut self, ph: u8) {
        let now_ms = self.run.start.elapsed().as_millis() as u64;
        let hard_pressure = self.run.pressure.load(Ordering::Relaxed) >= 2;
        self.dial(ph);
        self.accept(now_ms, hard_pressure);
        if hard_pressure {
            self.evict();
        } else if ph != PHASE_ESTABLISH {
            self.serve(now_ms);
        }
        self.sweep_deadlines(ph, now_ms);
        self.gauges.set_open(self.table.len() as u64);
    }

    /// Dial pump: the traffic engine knocking on this shard's listener.
    fn dial(&mut self, ph: u8) {
        let params = self.run.params;
        if ph != PHASE_STORM {
            // Steady phases: restore the population, paced inside the
            // backlog so a healthy server never sheds its own dials.
            let deficit = self.run.target_per_shard.saturating_sub(self.table.len());
            let free = params.backlog_cap.saturating_sub(self.shard.backlog_len());
            for _ in 0..deficit.min(free) {
                if self.shard.dial(COOKIE_HONEST).is_err() {
                    ShardGauges::bump(&self.gauges.shed_accepts);
                }
            }
            return;
        }
        // DoS burst: over-dial the listen queue (backpressure must shed
        // the excess) with a slowloris mix.
        for _ in 0..params.backlog_cap + params.backlog_cap / 4 {
            let cookie = if self.rng.gen_bool(ATTACKER_FRACTION) {
                COOKIE_ATTACKER
            } else {
                COOKIE_HONEST
            };
            if self.shard.dial(cookie).is_err() {
                ShardGauges::bump(&self.gauges.shed_accepts);
            }
        }
        // Churn storm: close established honest connections (their
        // teardown defers) and let the pump re-dial them later.
        for _ in 0..params.churn_per_iter {
            if self.table.len() == 0 {
                break;
            }
            let i = self.rng.gen_range(0..self.table.len());
            if !self.table.entries[i].attacker {
                let e = self.table.take(i);
                self.close(e);
            }
        }
    }

    /// Accept — or shed the backlog unallocated, when pressure is hard or
    /// the shard is at its connection cap.
    fn accept(&mut self, now_ms: u64, hard_pressure: bool) {
        if hard_pressure || self.table.len() >= self.run.target_per_shard * MAX_CONNS_FACTOR {
            while self.shard.shed_dial().is_some() {
                ShardGauges::bump(&self.gauges.shed_accepts);
            }
            return;
        }
        for _ in 0..self.run.params.accept_budget {
            match self.shard.accept() {
                None => break,
                Some(Err(NetError::Refused)) => ShardGauges::bump(&self.gauges.refused_accepts),
                Some(Err(_)) => ShardGauges::bump(&self.gauges.alloc_drops),
                Some(Ok((conn, cookie))) => self.admit(conn, cookie == COOKIE_ATTACKER, now_ms),
            }
        }
    }

    /// Allocates an accepted connection's state and parse buffer and arms
    /// its deadline — or, once the retry budget is exhausted, drops the
    /// connection, never panics.
    fn admit(&mut self, conn: ConnId, attacker: bool, now_ms: u64) {
        let run = self.run;
        let state = self.alloc(&run.state_cache);
        let buf = self.alloc(&run.buf_cache);
        let (Some(state), Some(buf)) = (state, buf) else {
            for (cache, obj) in [(&run.state_cache, state), (&run.buf_cache, buf)] {
                if let Some(p) = obj {
                    // SAFETY: never published; this reactor alone holds it.
                    unsafe { cache.free(p) };
                }
            }
            let _ = self.shard.close(conn);
            ShardGauges::bump(&self.gauges.alloc_drops);
            return;
        };
        // SAFETY: fresh exclusive objects, sized above.
        unsafe {
            state.as_ptr().cast::<u64>().write(conn.0);
            buf.as_ptr().cast::<u64>().write(conn.0);
        }
        let timeout = if attacker {
            run.params.slow_deadline_ms
        } else {
            run.params.idle_timeout_ms
        };
        let deadline = now_ms + timeout;
        self.shard.arm_deadline(conn, deadline);
        self.table.insert(ConnEntry { conn, state, buf, attacker, deadline });
        ShardGauges::bump(&self.gauges.accepted);
    }

    /// Load shedding under hard pressure: evict idle connections instead
    /// of serving requests.
    fn evict(&mut self) {
        for _ in 0..REQUEST_BUDGET.min(self.table.len()) {
            let e = self.table.take(self.table.len() - 1);
            self.close(e);
            ShardGauges::bump(&self.gauges.shed_conns);
        }
    }

    /// Services the Zipfian request mix.
    fn serve(&mut self, now_ms: u64) {
        let run = self.run;
        for _ in 0..REQUEST_BUDGET {
            if self.table.len() == 0 {
                break;
            }
            let i = self.rng.gen_range(0..self.table.len());
            if self.table.entries[i].attacker {
                // Slowloris: never completes a request; just sits on its
                // deadline.
                continue;
            }
            let conn = self.table.entries[i].conn;
            let key = run.zipf.sample(self.rng.gen::<f64>());
            // Popular keys are small cached objects; the long tail serves
            // bigger documents.
            let bytes = 64usize << (key % 5).min(4);
            let Some(scratch) = self.alloc(&run.scratch_cache) else { continue };
            // SAFETY: fresh exclusive object.
            unsafe {
                std::ptr::write_bytes(scratch.as_ptr(), 0x5A, 64);
                run.scratch_cache.free(scratch);
            }
            match self.shard.net().request_response(conn, bytes) {
                Ok(()) => {
                    ShardGauges::bump(&self.gauges.requests);
                    let deadline = now_ms + run.params.idle_timeout_ms;
                    self.table.entries[i].deadline = deadline;
                    self.shard.arm_deadline(conn, deadline);
                }
                Err(NetError::WouldBlock) => {
                    // Peer stalled mid-read: count it and leave the
                    // deadline armed — persistent stalling is evicted,
                    // not waited on.
                    ShardGauges::bump(&self.gauges.read_stalls);
                }
                Err(_) => {}
            }
        }
    }

    /// Deadline sweep: evict expired connections (lazily-cancelled
    /// refreshes are skipped by the deadline comparison).
    fn sweep_deadlines(&mut self, ph: u8, now_ms: u64) {
        self.expired.clear();
        self.shard.poll_deadlines(now_ms, &mut self.expired);
        for &(conn, deadline) in &self.expired {
            let Some(&i) = self.table.index.get(&conn) else { continue };
            if self.table.entries[i].deadline != deadline {
                continue;
            }
            if ph == PHASE_ESTABLISH && !self.table.entries[i].attacker {
                // No request is serviced before establish completes, so
                // "idle" is meaningless here; evicting would cap the
                // population at the accept-rate x timeout equilibrium and
                // large targets could never establish.
                let next = now_ms + self.run.params.idle_timeout_ms;
                self.table.entries[i].deadline = next;
                self.shard.arm_deadline(self.table.entries[i].conn, next);
                continue;
            }
            let e = self.table.take(i);
            self.close(e);
            ShardGauges::bump(&self.gauges.timeouts);
        }
    }

    /// Bounded retry with exponential backoff around one allocation. Each
    /// attempt re-enters the allocator (whose staged OOM ladder runs
    /// underneath); every attempt's latency — success or failure — lands
    /// in the alloc-path histogram the p99.9 gate reads.
    fn alloc(&mut self, cache: &Arc<dyn ObjectAllocator>) -> Option<ObjPtr> {
        let mut backoff_us = 20u64;
        for attempt in 0..=ALLOC_RETRY_BUDGET {
            let t0 = Instant::now();
            let result = cache.allocate();
            self.hist.record(t0.elapsed().as_nanos() as u64);
            if let Ok(p) = result {
                return Some(p);
            }
            if attempt < ALLOC_RETRY_BUDGET {
                ShardGauges::bump(&self.gauges.alloc_retries);
                std::thread::sleep(Duration::from_micros(backoff_us));
                backoff_us = (backoff_us * 2).min(2_000);
            }
        }
        None
    }

    /// Closes one connection and defers its server-side state, as
    /// connection teardown does in the kernel.
    fn close(&self, e: ConnEntry) {
        let _ = self.shard.close(e.conn);
        // SAFETY: the entry was removed from the table, so this reactor
        // owns the objects; pre-existing RCU readers may still inspect
        // them until the grace period ends, which is exactly what
        // free_deferred is for.
        unsafe {
            self.run.state_cache.free_deferred(e.state);
            self.run.buf_cache.free_deferred(e.buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServerParams {
        ServerParams {
            connections: 1_500,
            baseline_ms: 50,
            storm_ms: 120,
            recovery_ms: 180,
            ..ServerParams::smoke()
        }
    }

    #[test]
    fn zipf_sampler_is_heavily_skewed() {
        let z = Zipf::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0u64;
        const N: u64 = 10_000;
        for _ in 0..N {
            if z.sample(rng.gen::<f64>()) < 10 {
                head += 1;
            }
        }
        // Top-10 of 100 keys should draw well over half the traffic.
        assert!(head > N / 2, "head draw {head}/{N}");
        assert_eq!(z.sample(0.0), 0);
        assert_eq!(z.sample(1.0), 99);
    }

    #[test]
    fn storm_and_recovery_gates_hold_on_both_allocators() {
        for kind in AllocatorKind::BOTH {
            let r = run_server(kind, &tiny());
            assert!(r.verdict.passed(), "{kind}: {:?}\n{}", r.verdict.violations, r.render());
            assert!(r.totals.requests > 0);
            assert!(r.storm.shed_accepts > 0, "storm must shed at the backlog");
            assert!(r.totals.timeouts > 0, "slowloris conns must be evicted");
            assert_eq!(r.verdict.deferred_outstanding_end, 0);
            assert_eq!(r.verdict.used_bytes_after_teardown, 0);
            let back: ServerReport =
                serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
            assert_eq!(back.verdict, r.verdict);
            assert_eq!(back.totals, r.totals);
        }
    }

    #[test]
    fn establish_times_out_at_its_deadline() {
        // Reactors that never accept: the population can never build.
        let params = ServerParams { accept_budget: 0, ..tiny() };
        let run = ServerRun::new(AllocatorKind::Prudence, &params);
        let mut t = Timeline::default();
        let started = Instant::now();
        run.serve(|run| run.establish(&mut t, Duration::from_millis(200)));
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        assert_eq!(t.violations.len(), 1, "{:?}", t.violations);
        assert!(t.violations[0].starts_with("establish timed out: 0/1500"), "{:?}", t.violations);
    }

    #[test]
    fn driver_unwinding_mid_storm_still_joins_the_reactors() {
        let params = tiny();
        let run = ServerRun::new(AllocatorKind::Prudence, &params);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.serve(|run| {
                let mut t = Timeline::default();
                run.establish(&mut t, params.establish_timeout);
                // Returns once every reactor runs the storm and the last
                // shard holds its pin.
                run.hold(&mut t, PHASE_STORM, Duration::ZERO, params.establish_timeout);
                assert!(t.violations.is_empty(), "{:?}", t.violations);
                panic!("driver unwinds mid-storm");
            })
        }));
        assert!(unwound.is_err());
        // `serve` returned, so every reactor was joined; each closed its
        // connections on the way out.
        assert_eq!(run.phase.load(Ordering::Acquire), PHASE_SHUTDOWN);
        assert_eq!(run.net.connection_count(), 0);
    }

    #[test]
    fn retry_backoff_engages_under_grow_faults() {
        let params = ServerParams {
            grow_fault_p: 0.4,
            // Retries stretch the alloc path by design here; only the
            // wedge bound applies.
            p999_alloc_bound_ns: 30_000_000_000,
            stalled_shard: false,
            ..tiny()
        };
        let r = run_server(AllocatorKind::Prudence, &params);
        assert!(
            r.totals.alloc_retries > 0,
            "p=0.4 grow faults must force retries: {}",
            r.render()
        );
        assert_eq!(r.verdict.panics, 0);
    }

    #[test]
    fn hard_pressure_trips_load_shedding() {
        // Low watermarks + epoch backend + a parked shard: storm churn
        // defers faster than reclamation drains, pressure goes hard, and
        // the reactors must shed instead of panicking.
        let params = ServerParams {
            pressure_watermarks: Some((16, 48)),
            reclaim: Some(ReclaimBackend::Epoch),
            churn_per_iter: 64,
            ..tiny()
        };
        let r = run_server(AllocatorKind::Prudence, &params);
        assert!(r.pressure_hard_seen, "watermarks (16,48) never went hard: {}", r.render());
        assert!(
            r.totals.shed_conns > 0 || r.storm.shed_accepts > 0,
            "hard pressure must shed: {}",
            r.render()
        );
        assert_eq!(r.verdict.panics, 0);
        assert_eq!(r.verdict.deferred_outstanding_end, 0);
    }

    #[test]
    fn robust_backend_bounds_garbage_with_parked_shard() {
        let params = ServerParams {
            reclaim: Some(ReclaimBackend::Hp),
            ..tiny()
        };
        let r = run_server(AllocatorKind::Prudence, &params);
        assert!(r.verdict.passed(), "{:?}\n{}", r.verdict.violations, r.render());
        assert!(
            r.max_garbage_storm <= r.garbage_bound,
            "hp must bound garbage: {}",
            r.render()
        );
        assert!(r.verdict.stall_warnings >= 1, "parked shard must be blamed");
    }

    #[test]
    fn replay_flags_name_only_what_differs_from_the_base() {
        assert_eq!(ServerParams::full_scale().replay_flags(), "");
        assert_eq!(ServerParams::smoke().replay_flags(), " --smoke");
        let params = ServerParams {
            stalled_shard: false,
            storm_ms: 10,
            garbage_bound: 9,
            ..ServerParams::full_scale()
        };
        assert_eq!(params.replay_flags(), " --no-stall --storm-ms 10 --garbage-bound 9");
    }
}
