//! The measuring engine: configurations, testbeds, spans, rounds.
//!
//! Everything here times the program from outside, through its public
//! items. One *configuration* (the shipped default, or one of three
//! one-axis variants) is set up, warmed by one discarded round, then
//! driven through rounds of a fixed operation count with an untimed
//! `quiesce()` between rounds so each starts from the same state.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

use pbs_alloc_api::{CacheFactory, CacheStatsSnapshot, ObjPtr, ObjectAllocator};
use pbs_ledger::Check;
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig, ReclaimStats};
use pbs_rcu::{RcuConfig, RcuStats};
use pbs_telemetry::HistogramSnapshot;
use pbs_workloads::{AllocatorKind, Testbed};

/// Page-allocator limit of every testbed (the `microbench` default).
pub const PAGE_LIMIT_BYTES: usize = 256 << 20;

/// Operations between two memory/garbage samples taken by the worker.
/// A prime, so the sampler does not beat with the program's own batch
/// sizes: at 1024, `defer_churn` on hp (scan every 256 defers) and
/// hyaline (seal every 64) was always sampled right after a reclaim pass
/// and read 0 garbage.
pub const SAMPLE_EVERY: usize = 1021;

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The four configurations every workload is timed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The system under test: Prudence, default fast-path engine, default
    /// reclamation backend (epoch), telemetry on.
    Default,
    /// The paper's control: the SLUB-style allocator, same inputs.
    Slub,
    /// Prudence over the hazard-pointer backend.
    Hp,
    /// Prudence over the Hyaline-style batch backend.
    Hyaline,
}

impl Variant {
    /// Every configuration, system under test first.
    pub const ALL: [Variant; 4] = [
        Variant::Default,
        Variant::Slub,
        Variant::Hp,
        Variant::Hyaline,
    ];

    /// Label used in output files and check names.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Default => "default",
            Variant::Slub => "slub",
            Variant::Hp => "hp",
            Variant::Hyaline => "hyaline",
        }
    }

    /// Position in [`Variant::ALL`] (indexes the rate-hint tables).
    pub fn index(self) -> usize {
        Variant::ALL.iter().position(|v| *v == self).unwrap_or(0)
    }

    fn kind(self) -> AllocatorKind {
        match self {
            Variant::Slub => AllocatorKind::Slub,
            _ => AllocatorKind::Prudence,
        }
    }

    fn reclaim(self) -> Option<(ReclaimBackend, ReclaimConfig)> {
        match self {
            // `None` is the shipped selection: `PBS_RECLAIM`'s default.
            Variant::Default | Variant::Slub => None,
            Variant::Hp => Some((ReclaimBackend::Hp, ReclaimConfig::default())),
            Variant::Hyaline => Some((ReclaimBackend::Hyaline, ReclaimConfig::default())),
        }
    }
}

/// One experiment environment plus a record of every cache created in
/// it, so memory and garbage can be sampled across subsystems that keep
/// their caches private (`SimFs`, `SimNet`, `Epoll`).
pub struct Bed {
    testbed: Testbed,
    caches: Mutex<Vec<Arc<dyn ObjectAllocator>>>,
}

impl Bed {
    /// A testbed for `variant` with `slots` CPU slots, `linux_like` RCU
    /// throttling and the 256 MiB page limit.
    pub fn new(variant: Variant, slots: usize) -> Self {
        Self::with_backend(variant.kind(), slots, variant.reclaim())
    }

    /// As [`Bed::new`], naming the allocator and backend directly (the
    /// probes build one bed per backend).
    pub fn with_backend(
        kind: AllocatorKind,
        slots: usize,
        reclaim: Option<(ReclaimBackend, ReclaimConfig)>,
    ) -> Self {
        Self {
            testbed: Testbed::new_tuned(
                kind,
                slots,
                RcuConfig::linux_like(),
                Some(PAGE_LIMIT_BYTES),
                None,
                None,
                None,
                reclaim,
            ),
            caches: Mutex::new(Vec::new()),
        }
    }

    /// The wrapped testbed.
    pub fn testbed(&self) -> &Testbed {
        &self.testbed
    }

    /// The shared page allocator.
    pub fn pages(&self) -> &Arc<PageAllocator> {
        self.testbed.pages()
    }

    /// Every cache created through this bed so far.
    pub fn caches(&self) -> Vec<Arc<dyn ObjectAllocator>> {
        self.caches.lock().expect("cache list lock").clone()
    }

    /// Deferred objects not yet reusable, over all caches.
    pub fn garbage(&self) -> usize {
        garbage_of(&self.caches())
    }

    /// Waits until every deferred free issued so far is reusable.
    pub fn quiesce(&self) {
        for cache in self.caches() {
            cache.quiesce();
        }
    }

    /// Sum of every cache's counters (peaks add: the caches coexist).
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        let mut sum = CacheStatsSnapshot::default();
        for cache in self.caches() {
            sum.merge(&cache.stats());
        }
        sum
    }

    /// A point-in-time copy of every public counter the ledger reads.
    pub fn counters(&self) -> Counters {
        let mut defer_delay = HistogramSnapshot::default();
        let mut ring_dropped = 0;
        for cache in self.caches() {
            let telemetry = cache.telemetry();
            if let Some(h) = telemetry.histogram("defer_delay_ns") {
                defer_delay.merge(h);
            }
            ring_dropped += telemetry.events_dropped;
        }
        Counters {
            at_ns: now_ns(),
            cache: self.cache_stats(),
            rcu: self.testbed.rcu().stats(),
            reclaim: self.testbed.reclaim_stats(),
            page_allocs: self.pages().accounting().alloc_count(),
            peak_bytes: self.pages().peak_bytes(),
            defer_delay,
            ring_dropped: ring_dropped + self.testbed.rcu().telemetry().events_dropped,
        }
    }
}

impl CacheFactory for Bed {
    fn create_cache(&self, name: &str, object_size: usize) -> Arc<dyn ObjectAllocator> {
        let cache = self.testbed.factory().create_cache(name, object_size);
        self.caches
            .lock()
            .expect("cache list lock")
            .push(Arc::clone(&cache));
        cache
    }

    fn label(&self) -> &str {
        self.testbed.factory().label()
    }
}

fn garbage_of(caches: &[Arc<dyn ObjectAllocator>]) -> usize {
    caches.iter().map(|c| c.deferred_outstanding()).sum()
}

/// The program's public counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    /// When the copy was taken.
    pub at_ns: u64,
    /// Summed cache counters.
    pub cache: CacheStatsSnapshot,
    /// RCU domain counters.
    pub rcu: RcuStats,
    /// Reclamation-backend counters.
    pub reclaim: ReclaimStats,
    /// Page-allocator block allocations so far.
    pub page_allocs: u64,
    /// Page-allocator peak bytes so far.
    pub peak_bytes: usize,
    /// `defer_delay_ns` histograms of all caches, merged.
    pub defer_delay: HistogramSnapshot,
    /// Trace-ring records overwritten, all caches plus the RCU domain.
    pub ring_dropped: u64,
}

/// Allocates with the benchmark's failure rule: an allocation still out
/// of memory after 8 yield-and-retry attempts fails its operation.
#[inline]
pub fn alloc_retry(cache: &dyn ObjectAllocator) -> Option<ObjPtr> {
    retry(|| cache.allocate())
}

/// Runs `f`, retrying up to 8 times (yielding in between) while it fails.
#[inline]
pub fn retry<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Option<T> {
    match f() {
        Ok(v) => Some(v),
        Err(_) => retry_slow(f),
    }
}

#[cold]
fn retry_slow<T, E>(mut f: impl FnMut() -> Result<T, E>) -> Option<T> {
    for _ in 0..8 {
        std::thread::yield_now();
        if let Ok(v) = f() {
            return Some(v);
        }
    }
    None
}

/// Defines [`SpanName`] from one table of `Variant => "layer.call"`.
macro_rules! span_names {
    ($($name:ident => $label:literal,)+) => {
        /// Names of the spans the workload loops record. `Op` is one whole
        /// operation, the parent of every other span.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum SpanName {
            $($name,)+
        }

        impl SpanName {
            /// Every span name, in discriminant order.
            pub const ALL: &'static [SpanName] = &[$(SpanName::$name,)+];

            /// `layer.call`; the layer is the crate the call goes into.
            pub fn label(self) -> &'static str {
                match self {
                    $(SpanName::$name => $label,)+
                }
            }
        }
    };
}

span_names! {
    Op => "bench.op",
    Alloc => "prudence.alloc",
    FreeDeferred => "prudence.free_deferred",
    TxnAlloc => "prudence.txn_alloc_x24",
    TxnBuffers => "prudence.txn_buffers_x3",
    TxnFree => "prudence.txn_free_x24",
    ReadLock => "rcu.read_lock",
    ReadUnlock => "rcu.read_unlock",
    MapGet => "structs.map_get",
    MapUpdate => "structs.map_update",
    BstLookup => "structs.bst_lookup",
    BstUpdate => "structs.bst_update",
    ListLookup => "structs.list_lookup",
    ListUpdate => "structs.list_update",
    FsCreate => "simfs.create",
    FsUnlink => "simfs.unlink",
    FsLookup => "simfs.lookup",
    FsOpen => "simfs.open",
    FsClose => "simfs.close",
    FsAppend => "simfs.append",
    FsRead => "simfs.read",
    NetConnect => "simnet.connect",
    NetClose => "simnet.close",
    NetRequestResponse => "simnet.request_response",
    EpollAdd => "simnet.epoll_add",
    EpollDel => "simnet.epoll_del",
}

impl SpanName {
    /// The layer part of [`label`](Self::label).
    pub fn layer(self) -> &'static str {
        let label = self.label();
        &label[..label.find('.').unwrap_or(label.len())]
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: SpanName,
    /// Index of the operation span that caused it (`u32::MAX` for an
    /// operation span itself).
    pub parent: u32,
    /// Start, nanoseconds since process start.
    pub start: u64,
    /// End, nanoseconds since process start.
    pub end: u64,
}

/// How a workload loop reports the calls it makes into a layer. The
/// untraced implementation compiles to nothing; the traced one records a
/// span around the call.
pub trait Probe {
    /// Runs `f` as one call named `name`.
    fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: end-to-end runs.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn span<R>(&mut self, _name: SpanName, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Tracing on: spans go into a pre-sized in-memory buffer.
pub struct Spans {
    buf: Vec<Span>,
    op: u32,
}

impl Spans {
    fn with_capacity(spans: usize) -> Self {
        Self {
            buf: Vec::with_capacity(spans),
            op: u32::MAX,
        }
    }

    #[inline]
    fn begin_op(&mut self) {
        self.op = self.buf.len() as u32;
        self.buf.push(Span {
            name: SpanName::Op,
            parent: u32::MAX,
            start: now_ns(),
            end: 0,
        });
    }

    #[inline]
    fn end_op(&mut self) {
        self.buf[self.op as usize].end = now_ns();
    }
}

impl Probe for Spans {
    #[inline]
    fn span<R>(&mut self, name: SpanName, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let out = f();
        let end = now_ns();
        self.buf.push(Span {
            name,
            parent: self.op,
            start,
            end,
        });
        out
    }
}

/// A workload: generated inputs, the structures they run against, and
/// one operation.
pub trait Workload: Sync + Sized {
    /// Name as listed in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Upper bound on spans one traced operation records (sizes the span
    /// buffer), the operation span included.
    const SPANS_PER_OP: usize;
    /// Operations per second and worker on the reference box at its
    /// fastest, by [`Variant::index`]. Sizes the generated inputs and the
    /// warm-up round; the measured rounds run that count or fewer (see
    /// `run::drive`). No metric depends on it.
    const RATE_HINT: [f64; 4];
    /// Per-worker state, built and dropped on the worker's own thread
    /// (reader registrations are `!Send`).
    type Local;

    /// Rounds `wanted` operations per round to a count the workload can
    /// run (a whole number of its periods).
    fn round_ops(wanted: usize) -> usize {
        wanted.max(1)
    }

    /// Generates the inputs for `threads` workers from `seed` and builds
    /// the caches and shared structures in `bed`. A round runs at most
    /// `ops_per_round` operations per worker, and at most `rounds` rounds
    /// run.
    fn build(bed: &Bed, seed: u64, threads: usize, ops_per_round: usize, rounds: usize) -> Self;

    /// Builds worker `tid`'s private state (runs on the worker thread).
    fn local(&self, bed: &Bed, tid: usize) -> Self::Local;

    /// Operation `i` of round `round` on worker `tid`; `false` = failed.
    fn op<P: Probe>(
        &self,
        local: &mut Self::Local,
        tid: usize,
        round: u64,
        i: usize,
        probe: &mut P,
    ) -> bool;

    /// Checks the final state against a plain model replayed from the
    /// same inputs. `executed` lists every round run, in order, as
    /// `(round, operations per worker)`.
    fn verify(&self, bed: &Bed, executed: &[(u64, usize)]) -> Vec<Check>;

    /// Per-layer rows only the workload can compute, from its own
    /// structures' public counters over the rounds `executed`.
    fn layer_counters(&self, _executed: &[(u64, usize)]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// How a round is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One clock read at each end of the round.
    Throughput,
    /// Every operation timed.
    Latency,
    /// A span around every operation and every call it makes.
    Traced,
}

struct Cmd {
    mode: Mode,
    round: u64,
    ops: usize,
}

/// What one worker measured in one round.
struct WorkerOut {
    start_ns: u64,
    end_ns: u64,
    failed: u64,
    mem_sum: f64,
    garbage_sum: f64,
    samples: u64,
    latencies: Vec<u32>,
    spans: Vec<Span>,
}

/// One measured round, all workers merged.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Operations run (all workers).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall time from the first worker's start to the last one's end.
    pub wall_ns: u64,
    /// Mean sampled page-allocator bytes in use.
    pub mem_avg: f64,
    /// Mean sampled deferred objects outstanding.
    pub garbage_avg: f64,
    /// Sampler ticks behind the two means.
    pub samples: u64,
    /// Latency rounds: every operation's time, ascending (`u32::MAX` =
    /// failed, so it counts as missing any latency figure).
    pub latencies: Vec<u32>,
    /// Traced rounds: every span recorded.
    pub spans: Vec<Span>,
    /// Time the untimed `quiesce()` after the round took.
    pub quiesce_ns: u64,
}

impl Round {
    /// Operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// The worker's own memory/garbage sampler.
struct Sampler<'a> {
    pages: &'a PageAllocator,
    caches: &'a [Arc<dyn ObjectAllocator>],
    mem_sum: f64,
    garbage_sum: f64,
    samples: u64,
}

impl Sampler<'_> {
    /// Runs `each(i)` for `i` in `0..ops`, sampling after every
    /// [`SAMPLE_EVERY`] operations and after the last. Returns the start
    /// and end of the loop.
    #[inline(always)]
    fn timed_loop(&mut self, ops: usize, mut each: impl FnMut(usize)) -> (u64, u64) {
        let start_ns = now_ns();
        let mut i = 0;
        while i < ops {
            let stop = (i + SAMPLE_EVERY).min(ops);
            while i < stop {
                each(i);
                i += 1;
            }
            self.mem_sum += self.pages.used_bytes() as f64;
            self.garbage_sum += garbage_of(self.caches) as f64;
            self.samples += 1;
        }
        (start_ns, now_ns())
    }
}

fn run_round<W: Workload>(
    w: &W,
    local: &mut W::Local,
    tid: usize,
    cmd: &Cmd,
    pages: &PageAllocator,
    caches: &[Arc<dyn ObjectAllocator>],
) -> WorkerOut {
    let mut sampler = Sampler {
        pages,
        caches,
        mem_sum: 0.0,
        garbage_sum: 0.0,
        samples: 0,
    };
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    let mut spans = Spans::with_capacity(0);
    let (start_ns, end_ns) = match cmd.mode {
        Mode::Throughput => sampler.timed_loop(cmd.ops, |i| {
            failed += u64::from(!w.op(local, tid, cmd.round, i, &mut Off));
        }),
        Mode::Latency => {
            latencies.reserve_exact(cmd.ops);
            // One clock read per operation: each sample runs from the
            // previous operation's end to this one's, except after the
            // sampler has run, when the clock is read afresh.
            let mut prev = 0;
            sampler.timed_loop(cmd.ops, |i| {
                if i % SAMPLE_EVERY == 0 {
                    prev = now_ns();
                }
                let ok = w.op(local, tid, cmd.round, i, &mut Off);
                let t = now_ns();
                latencies.push(if ok {
                    (t - prev).min(u64::from(u32::MAX - 1)) as u32
                } else {
                    u32::MAX
                });
                failed += u64::from(!ok);
                prev = t;
            })
        }
        Mode::Traced => {
            spans = Spans::with_capacity(cmd.ops * W::SPANS_PER_OP);
            sampler.timed_loop(cmd.ops, |i| {
                spans.begin_op();
                failed += u64::from(!w.op(local, tid, cmd.round, i, &mut spans));
                spans.end_op();
            })
        }
    };
    WorkerOut {
        start_ns,
        end_ns,
        failed,
        mem_sum: sampler.mem_sum,
        garbage_sum: sampler.garbage_sum,
        samples: sampler.samples,
        latencies,
        spans: spans.buf,
    }
}

fn worker<W: Workload>(
    w: &W,
    bed: &Bed,
    tid: usize,
    start: &Barrier,
    cmds: &Receiver<Cmd>,
    outs: &Sender<Option<WorkerOut>>,
) {
    let mut local = w.local(bed, tid);
    let caches = bed.caches();
    // Pools are built: tell the driver set-up on this worker is done.
    outs.send(None).expect("driver alive");
    while let Ok(cmd) = cmds.recv() {
        start.wait();
        let out = run_round(w, &mut local, tid, &cmd, bed.pages(), &caches);
        outs.send(Some(out)).expect("driver alive");
    }
}

/// A configuration that is set up and warmed: the driver's handle for
/// running rounds on it.
pub struct Session<'a> {
    bed: &'a Bed,
    threads: usize,
    cmd_txs: Vec<Sender<Cmd>>,
    outs: Receiver<Option<WorkerOut>>,
    next_round: u64,
    /// Every round run so far, `(round, operations per worker)`.
    pub executed: Vec<(u64, usize)>,
}

impl Session<'_> {
    /// Worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs one round of `ops` operations per worker, then quiesces.
    pub fn round(&mut self, mode: Mode, ops: usize) -> Round {
        let round = self.next_round;
        self.next_round += 1;
        self.executed.push((round, ops));
        for tx in &self.cmd_txs {
            tx.send(Cmd { mode, round, ops }).expect("worker alive");
        }
        let mut merged = Round {
            ops: (ops * self.threads) as u64,
            ..Round::default()
        };
        let (mut first, mut last) = (u64::MAX, 0);
        let (mut mem_sum, mut garbage_sum) = (0.0, 0.0);
        for _ in 0..self.threads {
            let out = self
                .outs
                .recv()
                .expect("worker alive")
                .expect("round result");
            first = first.min(out.start_ns);
            last = last.max(out.end_ns);
            merged.failed += out.failed;
            mem_sum += out.mem_sum;
            garbage_sum += out.garbage_sum;
            merged.samples += out.samples;
            merged.latencies.extend(out.latencies);
            merged.spans.extend(out.spans);
        }
        merged.wall_ns = last - first;
        merged.mem_avg = mem_sum / merged.samples.max(1) as f64;
        merged.garbage_avg = garbage_sum / merged.samples.max(1) as f64;
        merged.latencies.sort_unstable();
        let t = now_ns();
        self.bed.quiesce();
        merged.quiesce_ns = now_ns() - t;
        merged
    }
}

/// Sets a configuration up — inputs from `seed`, testbed, pools, worker
/// threads, one warm-up round — hands the warmed session (and the
/// warm-up round, which no metric uses) to `drive`, then tears it down
/// and runs the output checks. Returns what `drive` returned, the set-up
/// time in seconds and the checks.
pub fn with_session<W: Workload, R>(
    variant: Variant,
    seed: u64,
    threads: usize,
    ops_per_round: usize,
    rounds: usize,
    drive: impl FnOnce(&mut Session<'_>, &Bed, &W, &Round) -> R,
) -> (R, f64, Vec<Check>) {
    let setup_start = now_ns();
    // One slot more than workers: the program's own threads (reclaimers,
    // pre-flush worker) get a slot of their own, as CPUs do in the kernel.
    let bed = Bed::new(variant, threads + 1);
    let workload = W::build(&bed, seed, threads, ops_per_round, rounds + 1);
    let start = Barrier::new(threads);
    let (out_tx, out_rx) = channel();
    let label = variant.label();
    let (result, setup_s, mut checks) = std::thread::scope(|scope| {
        let mut cmd_txs = Vec::new();
        for tid in 0..threads {
            let (cmd_tx, cmd_rx) = channel();
            cmd_txs.push(cmd_tx);
            let (workload, bed, start, out_tx) = (&workload, &bed, &start, out_tx.clone());
            scope.spawn(move || worker(workload, bed, tid, start, &cmd_rx, &out_tx));
        }
        // Only workers hold senders now: a worker that panics closes the
        // channel and the driver fails instead of waiting forever.
        drop(out_tx);
        for _ in 0..threads {
            assert!(
                out_rx.recv().expect("worker alive").is_none(),
                "ready signal"
            );
        }
        let mut session = Session {
            bed: &bed,
            threads,
            cmd_txs,
            outs: out_rx,
            next_round: 0,
            executed: Vec::new(),
        };
        let warm_up = session.round(Mode::Throughput, ops_per_round);
        let setup_s = (now_ns() - setup_start) as f64 / 1e9;
        let result = drive(&mut session, &bed, &workload, &warm_up);
        bed.quiesce();
        let mut checks = vec![Check::eq(
            format!("{label}: quiesce drains every deferred object"),
            bed.garbage(),
            0,
        )];
        checks.extend(
            workload
                .verify(&bed, &session.executed)
                .into_iter()
                .map(|mut c| {
                    c.name = format!("{label}: {}", c.name);
                    c
                }),
        );
        // Dropping the session closes the command channels: workers exit
        // and drop their locals before the scope ends.
        (result, setup_s, checks)
    });
    drop(workload);
    let live: u64 = bed.caches().iter().map(|c| c.stats().live_objects).sum();
    checks.push(Check::eq(
        format!("{label}: no live objects after teardown"),
        live,
        0,
    ));
    let pages = Arc::clone(bed.pages());
    drop(bed);
    checks.push(Check::eq(
        format!("{label}: page allocator empty after teardown"),
        pages.used_bytes(),
        0,
    ));
    (result, setup_s, checks)
}

/// Every call-site row of the process-wide attribution table must have
/// balanced once all testbeds are torn down.
pub fn site_balance_check() -> Check {
    let unbalanced: Vec<String> = pbs_telemetry::site::report()
        .sites
        .iter()
        .filter(|s| s.outstanding != 0)
        .map(|s| format!("{} outstanding {}", s.label, s.outstanding))
        .collect();
    Check::eq(
        "site report: every row has outstanding == 0",
        unbalanced,
        Vec::new(),
    )
}
