//! Chaos harness: churn workloads under injected faults and stalled
//! readers, asserting the paper's robustness invariants at quiesce.
//!
//! The paper's claim that Prudence *waits on deferred objects instead of
//! failing* under memory pressure (Algorithm lines 31–33) is precisely the
//! behaviour ordinary benchmarks never reach. This module reaches it on
//! purpose: tree/hashmap churn plus raw alloc/free/defer traffic runs with
//! a seeded [`FaultInjector`] failing slab grows and stalling grace-period
//! advances, while a dedicated thread keeps pinning read-side critical
//! sections so reclamation is starved even as `free_deferred` traffic
//! continues. At the end the harness checks, for either allocator:
//!
//! * every injected fault surfaced as an `Err` or was absorbed by a
//!   documented recovery path — never a panic (`parking_lot` locks cannot
//!   poison, and the run counts worker panics directly);
//! * no object was handed out twice while live (a double merge of latent
//!   caches would mint duplicates);
//! * after quiesce, `deferred_outstanding == 0` and no live objects remain;
//! * the page allocator's `limit_bytes` was never exceeded (`peak <=
//!   limit`, guaranteed by the compare-exchange reserve) and `used_bytes`
//!   returns to zero once the caches are dropped.
//!
//! Runs are replayable: all fault decisions derive from the seed, so a
//! failing seed can be handed to `--bin chaos` and reproduced.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use pbs_alloc_api::engine::EngineConfig;
use pbs_alloc_api::{fastpath_default_engine, CacheStatsSnapshot, FastPathEngine, ObjPtr};
use pbs_fault::{site, FaultInjector, Schedule};
use pbs_rcu::reclaim::ReclaimBackend;
use pbs_rcu::RcuConfig;
use pbs_structs::{RcuBst, RcuHashMap};

use crate::apps::{ServerParams, ServerReport};
use crate::harness::{self, audit_teardown, garbage_contrast_gate, ContrastFailure};
use crate::{hardened_bed, AllocatorKind, RunVerdict};

/// Which stress profile a chaos run applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosScenario {
    /// Balanced churn with moderate fault rates (the original harness).
    Mixed,
    /// Reader pins held far past the (lowered) stall threshold: the
    /// watchdog must warn at least once, and the backlog must still drain
    /// to zero at quiesce.
    StalledReader,
    /// Defer-heavy traffic against a tight memory budget with aggressive
    /// grow faults: allocations must climb the recovery ladder and at
    /// least one must be rescued by a ladder stage rather than fail.
    OomStorm,
    /// A toggler thread flips the per-CPU fast path (disable-with-drain,
    /// re-enable, engine switch, engine restore) continuously under
    /// churn: every switchover must stay leak-free and every quiesce
    /// invariant must still hold at the end.
    FastpathFlap,
    /// The sharded server scenario
    /// ([`run_server`](crate::apps::run_server)) as a chaos leg: a DoS
    /// burst plus a parked reactor shard, gated on shed-not-panic,
    /// deadline eviction, the stalled-reader garbage bound and post-storm
    /// recovery.
    ServerStorm,
}

impl ChaosScenario {
    /// Every scenario, in the order the gating matrix runs them.
    pub const ALL: [ChaosScenario; 5] = [
        ChaosScenario::Mixed,
        ChaosScenario::StalledReader,
        ChaosScenario::OomStorm,
        ChaosScenario::FastpathFlap,
        ChaosScenario::ServerStorm,
    ];

    /// CLI / report label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosScenario::Mixed => "mixed",
            ChaosScenario::StalledReader => "stalled-reader",
            ChaosScenario::OomStorm => "oom-storm",
            ChaosScenario::FastpathFlap => "fastpath-flap",
            ChaosScenario::ServerStorm => "server-storm",
        }
    }
}

impl std::fmt::Display for ChaosScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ChaosScenario {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mixed" => Ok(ChaosScenario::Mixed),
            "stalled-reader" => Ok(ChaosScenario::StalledReader),
            "oom-storm" => Ok(ChaosScenario::OomStorm),
            "fastpath-flap" => Ok(ChaosScenario::FastpathFlap),
            "server-storm" => Ok(ChaosScenario::ServerStorm),
            other => Err(format!(
                "unknown scenario {other:?} (expected mixed, stalled-reader, oom-storm, \
                 fastpath-flap or server-storm)"
            )),
        }
    }
}

/// Parameters for one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosParams {
    /// Worker threads (also the testbed CPU-slot count).
    pub threads: usize,
    /// Operations per worker (ignored when [`duration`](Self::duration)
    /// is set).
    pub ops_per_thread: u64,
    /// Key range for the tree/hashmap churn.
    pub keys: u64,
    /// Seed for both the fault injector and every worker RNG.
    pub seed: u64,
    /// Hard memory limit for the run.
    pub limit_bytes: usize,
    /// Probability of an injected OOM per slab-grow attempt.
    pub grow_fault_p: f64,
    /// Probability of an injected stall per grace-period-advance attempt.
    pub stall_fault_p: f64,
    /// Stress profile; tunes the reader-stall length, op mix, pressure
    /// watermarks and the scenario's extra invariants.
    pub scenario: ChaosScenario,
    /// Wall-clock run length. When set, workers run until the deadline
    /// instead of counting ops — scenarios that must outlast the stall
    /// threshold need real time, not an op budget.
    pub duration: Option<Duration>,
    /// Reclamation backend override; `None` honours `PBS_RECLAIM` (so the
    /// CI matrix switches the whole harness with one variable).
    pub reclaim: Option<ReclaimBackend>,
    /// Stalled-reader scenario: the garbage bound the robust backends
    /// must hold while a reader stays pinned. The epoch backend must
    /// *exceed* it in the same position — that unbounded growth is the
    /// documented bug the robust backends exist to bound, and the probe
    /// fails the run if either side of the contrast goes missing.
    pub garbage_bound: usize,
    /// Start a live doctor endpoint for the run and smoke-test it
    /// mid-run: `/metrics` must validate and, for stalled-reader runs,
    /// `/doctor` must name the staller thread while it is pinned.
    pub doctor: bool,
    /// Server-storm scenario: target concurrent connections (ignored by
    /// the other scenarios).
    pub connections: usize,
}

impl Default for ChaosParams {
    fn default() -> Self {
        Self {
            threads: 4,
            ops_per_thread: 4_000,
            keys: 128,
            seed: 1,
            limit_bytes: 8 << 20,
            grow_fault_p: 0.05,
            stall_fault_p: 0.10,
            scenario: ChaosScenario::Mixed,
            duration: None,
            reclaim: None,
            garbage_bound: 256,
            doctor: false,
            connections: 10_000,
        }
    }
}

impl ChaosParams {
    /// Default parameters tuned for a scenario: stalled-reader and
    /// oom-storm runs are time-bounded (they need to outlast stall
    /// thresholds and grace periods), and the storm tightens the budget
    /// while raising the grow-fault rate.
    pub fn for_scenario(scenario: ChaosScenario) -> Self {
        let base = Self::default();
        match scenario {
            ChaosScenario::Mixed => base,
            ChaosScenario::StalledReader => Self {
                scenario,
                stall_fault_p: 0.20,
                duration: Some(Duration::from_millis(150)),
                ..base
            },
            ChaosScenario::OomStorm => Self {
                scenario,
                grow_fault_p: 0.25,
                // Just below the churn's natural working set (~104 KiB at
                // these thread counts), so slab grows keep colliding with
                // the limit while deferred objects are pinned.
                limit_bytes: 96 << 10,
                duration: Some(Duration::from_millis(150)),
                ..base
            },
            // Time-bounded so the toggler gets enough wall clock to cycle
            // through all four flap states many times under live traffic.
            ChaosScenario::FastpathFlap => Self {
                scenario,
                duration: Some(Duration::from_millis(150)),
                ..base
            },
            // The server scenario manages its own phases, faults and
            // memory; the chaos-level limit is disabled (0 = uncapped)
            // and the garbage bound sized to a connection population
            // rather than the micro-churn probe. The micro-harness grow
            // faults are off by default: their retry backoff throttles
            // storm churn enough to erase the epoch side of the garbage
            // contrast (the retry ladder has its own scenario and unit
            // coverage), though `--grow-p` can still force them.
            ChaosScenario::ServerStorm => Self {
                scenario,
                limit_bytes: 0,
                grow_fault_p: 0.0,
                garbage_bound: 4_096,
                ..base
            },
        }
    }

    /// The `chaos` flags that turn [`for_scenario`](Self::for_scenario)
    /// into these parameters, each with a leading space. Seed, scenario,
    /// allocator and backend are left out: a replay line always spells
    /// them out.
    fn replay_flags(&self) -> String {
        let base = Self::for_scenario(self.scenario);
        let duration = self.duration.filter(|&d| Some(d) != base.duration);
        let (p, b) = (self, &base);
        [
            (p.threads != b.threads, format!(" --threads {}", p.threads)),
            (p.ops_per_thread != b.ops_per_thread, format!(" --ops {}", p.ops_per_thread)),
            (p.keys != b.keys, format!(" --keys {}", p.keys)),
            (p.limit_bytes != b.limit_bytes, format!(" --limit-mb {}", p.limit_bytes >> 20)),
            (p.grow_fault_p != b.grow_fault_p, format!(" --grow-p {}", p.grow_fault_p)),
            (p.stall_fault_p != b.stall_fault_p, format!(" --stall-p {}", p.stall_fault_p)),
            (
                duration.is_some(),
                format!(" --duration {}", duration.unwrap_or_default().as_secs_f64()),
            ),
            (p.garbage_bound != b.garbage_bound, format!(" --garbage-bound {}", p.garbage_bound)),
            (p.connections != b.connections, format!(" --connections {}", p.connections)),
            (p.doctor, " --doctor-smoke".to_owned()),
        ]
        .into_iter()
        .filter_map(|(differs, flag)| differs.then_some(flag))
        .collect()
    }
}

/// Outcome of one chaos run; `verdict.violations` is empty iff every
/// invariant held.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Scenario label.
    pub scenario: String,
    /// Who ran, what the teardown audit measured and every invariant
    /// violated. Stalled-reader runs must carry at least one blame record
    /// naming the dedicated staller thread.
    pub verdict: RunVerdict,
    /// Operations completed across all workers.
    pub ops_completed: u64,
    /// `AllocError` results observed by workers (limit OOMs + injected).
    pub oom_errors: u64,
    /// What only the micro-churn scenarios count (zero for server-storm).
    pub churn: ChurnCounters,
    /// Stalled-reader scenario: deferred objects still outstanding on the
    /// probe cache while a reader stayed pinned (`None` outside that
    /// scenario). Robust backends must keep this at or below
    /// [`stalled_garbage_bound`](Self::stalled_garbage_bound); the epoch
    /// backend must exceed it — its unbounded growth under a stalled
    /// reader is the failure mode the comparison matrix documents.
    pub stalled_garbage_observed: Option<usize>,
    /// The bound the probe held the robust backends to.
    pub stalled_garbage_bound: usize,
    /// `chaos` flags for every parameter that differed from the
    /// scenario's defaults (see [`replay_command`](Self::replay_command)).
    pub replay_flags: String,
}

/// Counters of the micro-churn harness, summed across its caches.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnCounters {
    /// Grace-period advances refused by injection.
    pub injected_gp_stalls: u64,
    /// Allocations rescued by a recovery-ladder stage.
    pub ladder_recoveries: u64,
    /// Pressure-level transitions.
    pub pressure_transitions: u64,
    /// Per-CPU fast-path hits (alloc + free).
    pub fastpath_hits: u64,
    /// Fast-path operations that bounced to the slow path (empty/full
    /// slots, disabled windows, engine switches).
    pub fastpath_fallbacks: u64,
    /// Fast-path state changes the flap toggler performed (0 outside the
    /// fastpath-flap scenario).
    pub fastpath_flips: u64,
}

impl ChaosReport {
    /// One-line summary for logs.
    pub fn render(&self) -> String {
        let garbage = match self.stalled_garbage_observed {
            Some(observed) => format!(
                ", stalled garbage {observed}/{} bound",
                self.stalled_garbage_bound
            ),
            None => String::new(),
        };
        let (v, c) = (&self.verdict, &self.churn);
        format!(
            "chaos[{} {} {} seed={}]: {} ops, {} ooms ({} injected), {} gp stalls, \
             {} warns, {} expedited, {} rescued, fastpath {}h/{}f/{} flips, \
             peak {}/{} KiB, {} panics{garbage} — {}",
            v.allocator,
            self.scenario,
            v.reclaim_backend,
            v.seed,
            self.ops_completed,
            self.oom_errors,
            v.injected_oom,
            c.injected_gp_stalls,
            v.stall_warnings,
            v.expedited_gps,
            c.ladder_recoveries,
            c.fastpath_hits,
            c.fastpath_fallbacks,
            c.fastpath_flips,
            v.peak_bytes >> 10,
            v.limit_bytes.unwrap_or(0) >> 10,
            v.panics,
            if v.passed() { "OK" } else { "FAILED" },
        )
    }

    /// One-line command reproducing this run: seed, scenario, allocator
    /// and backend pin the fault plan, and every parameter that differed
    /// from the scenario's defaults follows. Printed whenever an
    /// invariant fails so the failure can be replayed directly.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p pbs-workloads --bin chaos -- \
             --scenario {} --seed {} --allocator {} --reclaim {}{}",
            self.scenario,
            self.verdict.seed,
            self.verdict.allocator,
            self.verdict.reclaim_backend,
            self.replay_flags
        )
    }
}

/// Per-worker tally, merged into the report after the join.
#[derive(Debug, Default)]
struct WorkerTally {
    ops: u64,
    ooms: u64,
    violations: Vec<String>,
}

/// The server scenario a server-storm leg runs. The epoch contrast is
/// required — in the chaos matrix the epoch backend exceeding the garbage
/// bound under the parked shard is as load-bearing as the robust backends
/// holding it.
fn server_storm_params(params: &ChaosParams) -> ServerParams {
    ServerParams {
        connections: params.connections,
        seed: params.seed,
        grow_fault_p: params.grow_fault_p,
        reclaim: params.reclaim,
        garbage_bound: params.garbage_bound,
        limit_bytes: (params.limit_bytes > 0).then_some(params.limit_bytes),
        require_epoch_contrast: true,
        ..ServerParams::default()
    }
    .scaled_for_population()
}

/// Folds a server run into the chaos report shape, so the same runner,
/// seed plumbing and replay flow cover it; the verdict is carried whole.
fn server_storm_report(params: &ChaosParams, report: ServerReport) -> ChaosReport {
    ChaosReport {
        scenario: ChaosScenario::ServerStorm.label().to_owned(),
        ops_completed: report.totals.requests,
        oom_errors: report.totals.alloc_retries + report.totals.alloc_drops,
        churn: ChurnCounters::default(),
        stalled_garbage_observed: report
            .stalled_shard
            .then_some(report.max_garbage_storm),
        stalled_garbage_bound: report.garbage_bound,
        replay_flags: params.replay_flags(),
        verdict: report.verdict,
    }
}

/// Runs the chaos workload on one allocator and checks every invariant.
pub fn run_chaos(kind: AllocatorKind, params: &ChaosParams) -> ChaosReport {
    if params.scenario == ChaosScenario::ServerStorm {
        let report = crate::apps::run_server(kind, &server_storm_params(params));
        return server_storm_report(params, report);
    }
    let faults = Arc::new(FaultInjector::new(params.seed));
    faults.schedule(site::SLAB_GROW, Schedule::Probability(params.grow_fault_p));
    // Epoch advances, HP scans and Hyaline seals all consult this one
    // site, so the same stall probability starves every backend.
    faults.schedule(
        site::RECLAIM_ADVANCE,
        Schedule::Probability(params.stall_fault_p),
    );

    // Scenario knobs. The stalled-reader run lowers the watchdog threshold
    // below its pin pulses so warnings are reachable in a short run; the
    // storm lowers the pressure watermarks into the run's backlog range so
    // the governor (expedite, caller-assisted reclaim) engages.
    let mut rcu_config = RcuConfig::eager();
    let mut staller_hold = Duration::from_millis(2);
    let mut engine = None;
    match params.scenario {
        // ServerStorm never reaches here (it returned above); it carries
        // no knobs for the micro-churn harness.
        ChaosScenario::Mixed | ChaosScenario::FastpathFlap | ChaosScenario::ServerStorm => {}
        ChaosScenario::StalledReader => {
            rcu_config = rcu_config.with_stall_threshold(Duration::from_millis(2));
            staller_hold = Duration::from_millis(8);
        }
        ChaosScenario::OomStorm => {
            // Longer pins keep the deferred bursts pinned long enough for
            // grows to collide with the budget; the ladder's expedited
            // drain then succeeds as soon as a pin releases.
            staller_hold = Duration::from_millis(4);
            engine = Some(EngineConfig::new(params.threads).with_watermarks(64, 256));
        }
    }

    // Arc-wrapped so the doctor endpoint's provider closure can snapshot
    // the bed from its own thread while the run is live.
    let bed = Arc::new(hardened_bed(
        kind,
        params.threads,
        rcu_config,
        Some(params.limit_bytes),
        Some(Arc::clone(&faults)),
        engine,
        params.reclaim,
    ));
    // Robust backends reclaim while readers stay pinned. The structure
    // walks run under every backend — lookups and for_each go through the
    // protected-traversal layer (hazard-published under hp, checkpointed
    // under hyaline), so the op mix below is identical across backends.
    let backend = bed.reclaim_backend();
    let robust = harness::is_robust(backend);
    let node_cache = bed.create_cache("chaos_node", 64);
    let obj_cache = bed.create_cache("chaos_obj", 128);
    // Large-object cache only the storm's burst arm touches: 32-object
    // bursts of 512 B are 16 KiB each, so a handful of pinned bursts are
    // guaranteed to drive slab grows into the storm's tight budget.
    let storm_cache = bed.create_cache("chaos_storm", 512);

    // Live-object registry shared by all workers: allocate must never hand
    // out an address that another holder still owns (a latent-cache double
    // merge would do exactly that).
    let live: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));

    let mut violations: Vec<String> = Vec::new();
    let mut ops_completed = 0u64;
    let mut oom_errors = 0u64;
    let mut panics = 0u64;

    let stop_staller = Arc::new(AtomicBool::new(false));
    let mut fastpath_flips = 0u64;
    let doctor_server = if params.doctor {
        let provider_bed = Arc::clone(&bed);
        match crate::doctor::DoctorServer::start(move || provider_bed.telemetry()) {
            Ok(server) => Some(server),
            Err(e) => {
                violations.push(format!("doctor endpoint failed to start: {e}"));
                None
            }
        }
    } else {
        None
    };
    std::thread::scope(|s| {
        // Fast-path flapper: cycles every cache through
        // disable(+drain) → enable → portable engine → default engine
        // while the workers churn, so every switchover direction runs
        // against live traffic. Ends by restoring the enabled/default
        // state so the quiesce invariants check a healthy fast path.
        let flapper = (params.scenario == ChaosScenario::FastpathFlap).then(|| {
            let caches = [
                Arc::clone(&node_cache),
                Arc::clone(&obj_cache),
                Arc::clone(&storm_cache),
            ];
            let stop = Arc::clone(&stop_staller);
            s.spawn(move || {
                let mut flips = 0u64;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for cache in &caches {
                        match i % 4 {
                            0 => cache.fastpath_set_enabled(false),
                            1 => cache.fastpath_set_enabled(true),
                            2 => cache.fastpath_set_engine(FastPathEngine::Locks),
                            _ => cache.fastpath_set_engine(fastpath_default_engine()),
                        }
                        flips += 1;
                    }
                    i += 1;
                    std::thread::sleep(Duration::from_micros(500));
                }
                for cache in &caches {
                    cache.fastpath_set_engine(fastpath_default_engine());
                    cache.fastpath_set_enabled(true);
                    flips += 2;
                }
                flips
            })
        });
        // Stalled reader: pins read-side critical sections in long pulses,
        // starving grace-period advance while free_deferred traffic from
        // the workers keeps arriving. Pulses (not one endless pin) keep the
        // run's quiesce reachable.
        let staller = {
            let rcu = Arc::clone(bed.rcu());
            let stop = Arc::clone(&stop_staller);
            // Named so the watchdog's blame report (which captures the
            // registering thread's name) can identify the culprit.
            std::thread::Builder::new()
                .name("chaos-staller".to_owned())
                .spawn_scoped(s, move || {
                    let reader = rcu.register();
                    while !stop.load(Ordering::Relaxed) {
                        let guard = reader.read_lock();
                        std::thread::sleep(staller_hold);
                        drop(guard);
                        std::thread::yield_now();
                    }
                })
                .expect("spawn chaos-staller")
        };
        // Doctor smoke: scrape the live endpoint mid-run. `/metrics` must
        // validate against the schema; for stalled-reader runs `/doctor`
        // must name the pinned staller thread while the stall is live.
        let smoke = doctor_server.as_ref().map(|server| {
            let addr = server.addr();
            let scenario = params.scenario;
            s.spawn(move || {
                let mut problems: Vec<String> = Vec::new();
                let mut named = scenario != ChaosScenario::StalledReader;
                let mut last_err = None;
                for _ in 0..10 {
                    std::thread::sleep(Duration::from_millis(10));
                    match crate::doctor::http_get(addr, "/doctor") {
                        Ok(body) => {
                            last_err = None;
                            if body.contains("chaos-staller") {
                                named = true;
                            }
                        }
                        Err(e) => last_err = Some(e),
                    }
                    if named {
                        break;
                    }
                }
                if let Some(e) = last_err {
                    problems.push(format!("doctor smoke: GET /doctor failed: {e}"));
                } else if !named {
                    problems.push(
                        "doctor smoke: /doctor never named chaos-staller during the stall"
                            .to_owned(),
                    );
                }
                match crate::doctor::http_get(addr, "/metrics") {
                    Ok(body) => {
                        if let Err(e) = crate::telemetry_export::validate_prometheus(&body) {
                            problems
                                .push(format!("doctor smoke: /metrics failed validation: {e}"));
                        }
                    }
                    Err(e) => problems.push(format!("doctor smoke: GET /metrics failed: {e}")),
                }
                problems
            })
        });

        let workers: Vec<_> = (0..params.threads)
            .map(|tid| {
                let node_cache = Arc::clone(&node_cache);
                let obj_cache = Arc::clone(&obj_cache);
                let storm_cache = Arc::clone(&storm_cache);
                let live = Arc::clone(&live);
                let rcu = Arc::clone(bed.rcu());
                let params = params.clone();
                s.spawn(move || {
                    let mut tally = WorkerTally::default();
                    let mut rng = StdRng::seed_from_u64(params.seed ^ (tid as u64) << 32);
                    let reader = rcu.register();
                    let tree: RcuBst<u64> = RcuBst::new(Arc::clone(&node_cache));
                    let map: RcuHashMap<u64, u64> = RcuHashMap::new(node_cache, 32);
                    let mut held: Vec<ObjPtr> = Vec::new();
                    // A set duration defines the run length (time-bounded
                    // scenarios); otherwise the op budget does.
                    let deadline = params.duration.map(|d| Instant::now() + d);
                    let mut i = 0u64;
                    loop {
                        match deadline {
                            Some(dl) => {
                                if Instant::now() >= dl {
                                    break;
                                }
                            }
                            None => {
                                if i >= params.ops_per_thread {
                                    break;
                                }
                            }
                        }
                        i += 1;
                        tally.ops += 1;
                        let roll = rng.gen_range(0..10u32);
                        // The storm replaces most of the mix with burst
                        // defers (arm 10): each one drains the CPU cache
                        // and leaves a guaranteed deferred backlog, so
                        // refill failures land while the ladder has
                        // something to rescue.
                        let roll = if params.scenario == ChaosScenario::OomStorm {
                            match roll {
                                0..=4 => 10, // burst defer
                                5..=6 => 6,  // tree churn
                                7..=8 => 0,  // allocate and hold
                                _ => 9,      // read-side traversal
                            }
                        } else {
                            roll
                        };
                        match roll {
                            // Raw allocation, held for later free/defer.
                            0..=2 => match obj_cache.allocate() {
                                Ok(obj) => {
                                    if !live.lock().insert(obj.addr()) {
                                        tally.violations.push(format!(
                                            "double handout of {:#x} (latent double merge?)",
                                            obj.addr()
                                        ));
                                    }
                                    held.push(obj);
                                }
                                Err(_) => tally.ooms += 1,
                            },
                            // Immediate free.
                            3 => {
                                if let Some(obj) = held.pop() {
                                    live.lock().remove(&obj.addr());
                                    unsafe { obj_cache.free(obj) };
                                }
                            }
                            // Deferred free — the traffic that must keep
                            // flowing while readers stall reclamation.
                            4..=5 => {
                                if !held.is_empty() {
                                    let obj = held.swap_remove(rng.gen_range(0..held.len()));
                                    live.lock().remove(&obj.addr());
                                    unsafe { obj_cache.free_deferred(obj) };
                                }
                            }
                            // Tree churn: multi-deferral amplification.
                            6..=7 => {
                                let k = rng.gen_range(0..params.keys);
                                tree.remove(k);
                                if tree.insert(k, i).is_err() {
                                    tally.ooms += 1;
                                }
                            }
                            // Hashmap churn.
                            8 => {
                                let k = rng.gen_range(0..params.keys);
                                map.remove(&k);
                                if map.insert(k, i).is_err() {
                                    tally.ooms += 1;
                                }
                            }
                            // Burst defer (storm only): allocate a burst,
                            // then defer every object. Drains the CPU
                            // cache so the next refill really hits the
                            // node lists, and leaves a deferred backlog
                            // for the recovery ladder to rescue.
                            10 => {
                                let mut burst: Vec<ObjPtr> = Vec::with_capacity(32);
                                for _ in 0..32 {
                                    match storm_cache.allocate() {
                                        Ok(obj) => {
                                            if !live.lock().insert(obj.addr()) {
                                                tally.violations.push(format!(
                                                    "double handout of {:#x} in burst",
                                                    obj.addr()
                                                ));
                                            }
                                            burst.push(obj);
                                        }
                                        Err(_) => {
                                            tally.ooms += 1;
                                            break;
                                        }
                                    }
                                }
                                for obj in burst {
                                    live.lock().remove(&obj.addr());
                                    unsafe { storm_cache.free_deferred(obj) };
                                }
                            }
                            // Read-side traversal. No allocation happens
                            // under the guard: an alloc could wait on a
                            // grace period this pin is blocking.
                            _ => {
                                let guard = reader.read_lock();
                                let k = rng.gen_range(0..params.keys);
                                let _ = tree.lookup(&guard, k);
                                let _ = map.get(&guard, &k);
                            }
                        }
                    }
                    for obj in held.drain(..) {
                        live.lock().remove(&obj.addr());
                        unsafe { obj_cache.free(obj) };
                    }
                    tally
                })
            })
            .collect();

        for worker in workers {
            match worker.join() {
                Ok(tally) => {
                    ops_completed += tally.ops;
                    oom_errors += tally.ooms;
                    violations.extend(tally.violations);
                }
                Err(_) => panics += 1,
            }
        }
        stop_staller.store(true, Ordering::Relaxed);
        if staller.join().is_err() {
            panics += 1;
        }
        if let Some(flapper) = flapper {
            match flapper.join() {
                Ok(flips) => fastpath_flips = flips,
                Err(_) => panics += 1,
            }
        }
        if let Some(smoke) = smoke {
            match smoke.join() {
                Ok(problems) => violations.extend(problems),
                Err(_) => panics += 1,
            }
        }
    });

    // Stalled-garbage probe (stalled-reader scenario only): allocate a
    // garbage mountain, pin a reader, defer everything under the pin, then
    // measure what the backend reclaimed *while the reader stayed pinned*.
    // Robust backends must hold `deferred_outstanding` at or below the
    // configured bound; the epoch backend must exceed it — if it doesn't,
    // the probe was inert and the unbounded-garbage failure mode the
    // matrix documents never reproduced, which is itself a violation.
    let mut stalled_garbage_observed = None;
    if params.scenario == ChaosScenario::StalledReader {
        let probe_cache = bed.create_cache("chaos_probe", 64);
        // Allocate before pinning: failed grows take recovery paths that
        // may wait on reclamation, which must not happen under our own pin.
        let target = params.garbage_bound * 4;
        let mut objs: Vec<ObjPtr> = Vec::with_capacity(target);
        let mut attempts = 0usize;
        while objs.len() < target && attempts < target * 8 {
            attempts += 1;
            match probe_cache.allocate() {
                Ok(obj) => objs.push(obj),
                Err(_) => oom_errors += 1,
            }
        }
        if objs.len() < params.garbage_bound * 2 {
            violations.push(format!(
                "stalled-garbage probe starved: allocated {} of {target} objects",
                objs.len()
            ));
            for obj in objs.drain(..) {
                unsafe { probe_cache.free(obj) };
            }
        } else {
            let reader = bed.rcu().register();
            let guard = reader.read_lock();
            let deferred = objs.len();
            for obj in objs.drain(..) {
                unsafe { probe_cache.free_deferred(obj) };
            }
            // Let ejection fuses burn down, then drive the domain. A
            // single advance is flaky under injected `reclaim.advance`
            // refusals (each refusal merely procrastinates), so insist.
            std::thread::sleep(Duration::from_millis(5));
            for _ in 0..8 {
                bed.reclaim_domain().advance();
            }
            let observed = probe_cache.deferred_outstanding();
            stalled_garbage_observed = Some(observed);
            match garbage_contrast_gate(robust, observed, params.garbage_bound, true) {
                Some(ContrastFailure::RobustOverBound) => violations.push(format!(
                    "{backend}: {observed} of {deferred} deferred objects outstanding \
                     under a stalled reader, bound is {}",
                    params.garbage_bound
                )),
                Some(ContrastFailure::EpochWithinBound) => violations.push(format!(
                    "epoch probe inert: only {observed} of {deferred} deferred objects \
                     were blocked by a stalled reader — the unbounded-garbage failure \
                     mode this matrix documents did not reproduce"
                )),
                None => {}
            }
            drop(guard);
        }
        probe_cache.quiesce();
        let left = probe_cache.deferred_outstanding();
        if left != 0 {
            violations.push(format!(
                "probe cache left {left} deferred objects after quiesce"
            ));
        }
    }

    // Lookup-gating probe (stalled-reader scenario only): the inverse of
    // the garbage probe above. There the reader merely pins; here it keeps
    // *traversing the structures* while the backend reclaims around it, so
    // hp scans and hyaline ejections land mid-walk. Gates: no lookup may
    // crash or return a stale hit for a key whose removal the reader has
    // already observed, sentinel entries must stay exact, and under
    // hyaline the walk layer must actually have absorbed an ejection
    // (otherwise the traversal contract was never exercised).
    if params.scenario == ChaosScenario::StalledReader {
        let probe_cache = bed.create_cache("chaos_walk_probe", 64);
        let tree: RcuBst<u64> = RcuBst::new(Arc::clone(&probe_cache));
        let map: RcuHashMap<u64, u64> = RcuHashMap::new(Arc::clone(&probe_cache), 8);
        // Seeding races the injected grow faults; a failed insert leaves
        // the structure unchanged, so retry before calling it starved.
        let mut seeded = true;
        for k in 0..16u64 {
            let mut in_tree = false;
            let mut in_map = false;
            for _ in 0..8 {
                in_tree = in_tree || tree.insert(k, k * 7).is_ok();
                in_map = in_map || map.insert(k, k * 11).is_ok();
                if in_tree && in_map {
                    break;
                }
            }
            seeded &= in_tree && in_map;
        }
        if !seeded {
            violations.push("walk probe starved: could not seed sentinel keys".into());
        } else {
            const REMOVED_KEY: u64 = 8;
            // Allocate the garbage mountain up front: a failed grow climbs
            // recovery ladders that may wait on reclamation, which must
            // never happen while our own walker keeps the domain pinned
            // (same rule as the garbage probe above).
            let mut garbage: Vec<ObjPtr> = Vec::with_capacity(512);
            while garbage.len() < 512 {
                match probe_cache.allocate() {
                    Ok(obj) => garbage.push(obj),
                    Err(_) => {
                        oom_errors += 1;
                        break;
                    }
                }
            }
            let removed = AtomicBool::new(false);
            let stop = AtomicBool::new(false);
            let ejections_before = bed.reclaim_stats().ejections;
            let mut walk_report = (0u64, Vec::new());
            std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    let reader = bed.rcu().register();
                    // One pin held across every walk: exactly the stalled
                    // reader the robust backends reclaim around.
                    let guard = reader.read_lock();
                    let mut validate_losses = 0u64;
                    let mut problems = Vec::new();
                    while !stop.load(Ordering::Acquire) {
                        let saw_removal = removed.load(Ordering::Acquire);
                        for k in 0..16u64 {
                            let t_hit = tree.lookup(&guard, k);
                            let m_hit = map.get(&guard, &k);
                            if k == REMOVED_KEY {
                                if saw_removal && (t_hit.is_some() || m_hit.is_some()) {
                                    problems.push(format!(
                                        "walk probe: key {k} visible after its removal \
                                         was published (tree {t_hit:?}, map {m_hit:?})"
                                    ));
                                }
                            } else if t_hit != Some(k * 7) || m_hit != Some(k * 11) {
                                problems.push(format!(
                                    "walk probe: sentinel {k} corrupted \
                                     (tree {t_hit:?}, map {m_hit:?})"
                                ));
                            }
                        }
                        if !guard.validate() {
                            validate_losses += 1;
                        }
                    }
                    drop(guard);
                    (validate_losses, problems)
                });
                // Let the reader spin up, publish the removal, then bury
                // the domain in deferred garbage so scans and seals run
                // against the still-pinned, still-walking reader.
                std::thread::sleep(Duration::from_millis(1));
                tree.remove(REMOVED_KEY);
                map.remove(&REMOVED_KEY);
                removed.store(true, Ordering::Release);
                let deadline = Instant::now() + Duration::from_millis(15);
                while Instant::now() < deadline {
                    for _ in 0..8 {
                        if let Some(obj) = garbage.pop() {
                            unsafe { probe_cache.free_deferred(obj) };
                        }
                    }
                    bed.reclaim_domain().advance();
                    std::thread::sleep(Duration::from_micros(200));
                }
                for obj in garbage.drain(..) {
                    unsafe { probe_cache.free_deferred(obj) };
                }
                stop.store(true, Ordering::Release);
                match worker.join() {
                    Ok(report) => walk_report = report,
                    Err(_) => violations.push("walk probe reader panicked".into()),
                }
            });
            let (validate_losses, problems) = walk_report;
            violations.extend(problems);
            if backend == ReclaimBackend::Hyaline {
                let ejected = bed.reclaim_stats().ejections - ejections_before;
                if ejected == 0 {
                    violations.push(
                        "walk probe inert: hyaline never ejected the traversing reader"
                            .into(),
                    );
                } else if validate_losses == 0 {
                    violations.push(format!(
                        "walk probe: {ejected} ejections but the traversing guard \
                         never reported validate() == false"
                    ));
                }
            }
        }
        // Free the sentinel nodes, then drain the probe's deferred traffic
        // (the staller is gone and the walker's pin is released).
        drop(tree);
        drop(map);
        probe_cache.quiesce();
        let left = probe_cache.deferred_outstanding();
        if left != 0 {
            violations.push(format!(
                "walk probe cache left {left} deferred objects after quiesce"
            ));
        }
    }

    if !live.lock().is_empty() {
        violations.push(format!(
            "{} addresses still marked live after frees",
            live.lock().len()
        ));
    }
    if panics != 0 {
        violations.push(format!("{panics} worker panics"));
    }
    if params.scenario == ChaosScenario::FastpathFlap {
        for cache in [&node_cache, &obj_cache, &storm_cache] {
            if !cache.fastpath_enabled() {
                violations.push(format!(
                    "fastpath-flap: {} ended with the fast path disabled",
                    cache.name()
                ));
            }
        }
    }

    // Quiesce with the staller gone: every deferred object must drain,
    // and dropping the caches must bring every page home.
    let (mut verdict, stats) = audit_teardown(
        &bed,
        &faults,
        panics,
        violations,
        vec![Box::new(node_cache), Box::new(obj_cache), Box::new(storm_cache)],
    );
    let violations = &mut verdict.violations;
    // The background grace-period driver keeps consulting the injector
    // while we read, so the two counters can't be compared for equality.
    // Domains bump their stat strictly *after* the injector records the
    // hit, so sampling stats first guarantees stats <= injector. Epoch
    // advances and the robust backends' scans and seals refuse at the one
    // `reclaim.advance` site, so the stats side sums both refusers.
    let injected_gp_stalls = bed.rcu().stats().injected_gp_stalls;
    // The epoch domain *mirrors* the RCU stall counter into its
    // `injected_stalls`, so adding the two would double-count; only the
    // robust backends refuse scans/seals on their own behalf.
    let stall_stats = if robust {
        injected_gp_stalls + verdict.reclaim.injected_stalls
    } else {
        injected_gp_stalls
    };
    let stall_injected = faults.injected(site::RECLAIM_ADVANCE);
    if stall_stats > stall_injected {
        violations.push(format!(
            "stall accounting disagrees: stats {stall_stats} > injector {stall_injected}"
        ));
    }
    // Every injected OOM must be observable: either a worker saw the Err,
    // or an allocator recovery path (partial refill, emergency reclaim of
    // deferred objects) absorbed it — in which case the allocator performed
    // extra refill work we can't biject to faults. What is *never* allowed
    // is a panic, which is counted above.
    let injected_oom = verdict.injected_oom;
    if injected_oom > 0 && oom_errors == 0 {
        // The node and object caches (owner order).
        let absorbed = stats[0].1.refills + stats[1].1.refills;
        if absorbed == 0 {
            violations.push(format!(
                "{injected_oom} injected OOMs left no trace (no Err, no refill activity)"
            ));
        }
    }

    // Degradation counters plus the scenarios' extra invariants: a
    // stalled-reader run that never tripped the watchdog, or a storm that
    // never rescued an allocation through the ladder, means the machinery
    // under test did not engage.
    let sum = |field: fn(&CacheStatsSnapshot) -> u64| -> u64 {
        stats.iter().map(|(_, s)| field(s)).sum()
    };
    let churn = ChurnCounters {
        injected_gp_stalls,
        ladder_recoveries: sum(|s| s.oom_recoveries_total()),
        pressure_transitions: sum(|s| s.pressure_transitions),
        fastpath_hits: sum(|s| s.rseq_hits),
        fastpath_fallbacks: sum(|s| s.fastpath_fallbacks),
        fastpath_flips,
    };
    match params.scenario {
        ChaosScenario::Mixed | ChaosScenario::ServerStorm => {}
        ChaosScenario::StalledReader => {
            if verdict.stall_warnings == 0 {
                violations.push("stalled-reader: watchdog never warned".into());
            }
            // The blame subsystem must have identified the parked reader:
            // at least one record naming the staller thread, with a
            // nonzero measured pin duration.
            match verdict
                .blame
                .iter()
                .filter(|b| b.thread_name == "chaos-staller")
                .max_by_key(|b| b.stalled_for_ns)
            {
                None => violations
                    .push("stalled-reader: no blame record names chaos-staller".into()),
                Some(b) if b.stalled_for_ns == 0 => violations.push(
                    "stalled-reader: chaos-staller blamed with zero pin duration".into(),
                ),
                Some(_) => {}
            }
        }
        ChaosScenario::OomStorm => {
            if churn.ladder_recoveries == 0 {
                violations.push("oom-storm: no allocation recovered via a ladder stage".into());
            }
        }
        ChaosScenario::FastpathFlap => {
            if fastpath_flips == 0 {
                violations.push("fastpath-flap: toggler never flipped".into());
            }
            // Flapping must leave evidence: during disabled/switching
            // windows operations bounce (fallbacks), during enabled
            // windows they hit. A run where neither moved means the flap
            // never raced live traffic.
            if churn.fastpath_hits + churn.fastpath_fallbacks == 0 {
                violations.push("fastpath-flap: fast path saw no traffic".into());
            }
            // A quiesced cache has drained its fast slots: nothing parked
            // may survive into the post-quiesce accounting (the audit
            // asserts live_objects == 0 for every run).
            for (name, stats) in &stats {
                if stats.live_objects != 0 {
                    violations.push(format!(
                        "fastpath-flap: {} holds parked objects after quiesce",
                        name
                    ));
                }
            }
        }
    }

    ChaosReport {
        scenario: params.scenario.label().to_owned(),
        verdict,
        ops_completed,
        oom_errors,
        churn,
        stalled_garbage_observed,
        stalled_garbage_bound: params.garbage_bound,
        replay_flags: params.replay_flags(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_passed(report: &ChaosReport) {
        assert!(
            report.verdict.passed(),
            "{}\nviolations: {:?}\nreplay: {}",
            report.render(),
            report.verdict.violations,
            report.replay_command()
        );
    }

    #[test]
    fn chaos_invariants_hold_for_both_allocators() {
        let params = ChaosParams {
            threads: 2,
            ops_per_thread: 1_500,
            seed: 7,
            // A run this short makes only 15–45 advance attempts; at the
            // default 0.1 a few runs in ten refuse none of them.
            stall_fault_p: 0.2,
            ..ChaosParams::default()
        };
        for kind in AllocatorKind::BOTH {
            let report = run_chaos(kind, &params);
            assert_passed(&report);
            assert!(report.ops_completed > 0);
            // Epoch advances and a robust domain's scans or seals draw on
            // one `reclaim.advance` schedule; either may take its refusals.
            let refused = report.churn.injected_gp_stalls + report.verdict.reclaim.injected_stalls;
            assert!(refused > 0, "{kind}: stall schedule never fired");
        }
    }

    #[test]
    fn injected_faults_surface_without_panicking() {
        // Aggressive fault rates: a third of grows fail, half of advances
        // stall. The run must still terminate cleanly with zero panics.
        let params = ChaosParams {
            threads: 2,
            ops_per_thread: 1_000,
            seed: 23,
            grow_fault_p: 0.33,
            stall_fault_p: 0.5,
            ..ChaosParams::default()
        };
        for kind in AllocatorKind::BOTH {
            let report = run_chaos(kind, &params);
            assert_passed(&report);
            assert!(report.verdict.injected_oom > 0, "{kind}: grow faults never fired");
            assert_eq!(report.verdict.panics, 0);
        }
    }

    #[test]
    fn stalled_reader_scenario_trips_the_watchdog() {
        let params = ChaosParams {
            threads: 2,
            seed: 11,
            duration: Some(Duration::from_millis(80)),
            ..ChaosParams::for_scenario(ChaosScenario::StalledReader)
        };
        for kind in AllocatorKind::BOTH {
            let report = run_chaos(kind, &params);
            assert_passed(&report);
            assert!(report.verdict.stall_warnings >= 1, "{}", report.render());
            assert_eq!(report.verdict.deferred_outstanding_end, 0);
        }
    }

    #[test]
    fn oom_storm_scenario_recovers_via_ladder() {
        let params = ChaosParams {
            threads: 2,
            seed: 13,
            duration: Some(Duration::from_millis(80)),
            ..ChaosParams::for_scenario(ChaosScenario::OomStorm)
        };
        for kind in AllocatorKind::BOTH {
            let report = run_chaos(kind, &params);
            assert_passed(&report);
            assert!(report.churn.ladder_recoveries >= 1, "{}", report.render());
            assert!(Some(report.verdict.peak_bytes) <= report.verdict.limit_bytes);
            assert_eq!(report.verdict.panics, 0);
        }
    }

    #[test]
    fn fastpath_flap_scenario_survives_switchovers() {
        let params = ChaosParams {
            threads: 2,
            seed: 17,
            duration: Some(Duration::from_millis(80)),
            ..ChaosParams::for_scenario(ChaosScenario::FastpathFlap)
        };
        for kind in AllocatorKind::BOTH {
            let report = run_chaos(kind, &params);
            assert_passed(&report);
            assert!(report.churn.fastpath_flips >= 1, "{}", report.render());
            assert!(
                report.churn.fastpath_hits + report.churn.fastpath_fallbacks >= 1,
                "{}",
                report.render()
            );
            assert_eq!(report.verdict.deferred_outstanding_end, 0);
            assert_eq!(report.verdict.panics, 0);
        }
    }

    #[test]
    fn stalled_reader_garbage_bound_gates_every_backend() {
        // The comparison matrix's central gate: with a deliberately
        // stalled reader, hp and hyaline keep the probe's outstanding
        // garbage at or below the bound while epoch demonstrably exceeds
        // it. `run_chaos` turns either side failing into a violation, so
        // `verdict.passed()` carries the whole contrast; the explicit assertions
        // below just make the failure message name the number.
        for backend in ReclaimBackend::ALL {
            let params = ChaosParams {
                threads: 2,
                seed: 29,
                duration: Some(Duration::from_millis(80)),
                reclaim: Some(backend),
                ..ChaosParams::for_scenario(ChaosScenario::StalledReader)
            };
            for kind in AllocatorKind::BOTH {
                let report = run_chaos(kind, &params);
                assert_passed(&report);
                let observed = report
                    .stalled_garbage_observed
                    .expect("stalled-reader runs always probe");
                if backend == ReclaimBackend::Epoch {
                    assert!(observed > report.stalled_garbage_bound, "{}", report.render());
                } else {
                    assert!(observed <= report.stalled_garbage_bound, "{}", report.render());
                }
            }
        }
    }

    #[test]
    fn stalled_reader_doctor_smoke_names_the_staller() {
        // The live endpoint must be scrapeable mid-run and its diagnosis
        // must identify the parked reader by thread name; the final
        // report carries the blame records for offline inspection.
        let params = ChaosParams {
            threads: 2,
            seed: 19,
            doctor: true,
            duration: Some(Duration::from_millis(120)),
            ..ChaosParams::for_scenario(ChaosScenario::StalledReader)
        };
        for kind in AllocatorKind::BOTH {
            let report = run_chaos(kind, &params);
            assert_passed(&report);
            let culprit = report
                .verdict
                .blame
                .iter()
                .find(|b| b.thread_name == "chaos-staller")
                .expect("blame names the staller");
            assert!(culprit.stalled_for_ns > 0);
        }
    }

    #[test]
    fn server_storm_leg_carries_the_server_verdict() {
        let params = ChaosParams {
            connections: 1_200,
            seed: 31,
            ..ChaosParams::for_scenario(ChaosScenario::ServerStorm)
        };
        let server_params = server_storm_params(&params);
        let server = crate::apps::run_server(AllocatorKind::Prudence, &server_params);
        let chaos = server_storm_report(&params, server.clone());
        assert_eq!(chaos.verdict, server.verdict);
        assert_eq!(chaos.verdict.passed(), server.verdict.passed());
        assert_eq!(chaos.churn, ChurnCounters::default());
        assert_eq!(chaos.ops_completed, server.totals.requests);
        let replay = chaos.replay_command();
        assert!(replay.ends_with("--connections 1200"), "{replay}");
    }

    #[test]
    fn scenario_labels_round_trip() {
        for s in ChaosScenario::ALL {
            assert_eq!(s.label().parse::<ChaosScenario>().unwrap(), s);
        }
        assert!("bogus".parse::<ChaosScenario>().is_err());
    }
}
