//! The slab engine both allocators run on.
//!
//! [`SlabEngine`] owns everything a SLUB-shaped allocator needs — per-CPU
//! slots behind the zero-atomic fast path, the node's slab lists, the
//! refill/flush/grow/shrink skeleton, the OOM recovery ladder, the
//! deferred-backlog pressure gauge, statistics and telemetry — and the
//! paper's latent structures with every motion on them: the latent-cache
//! merge, the park into latent slabs, the pending-list sweep and the
//! all-slot drain. Refill and flush sizes follow the latent cache (partial
//! refill, proportional flush); with the latent structures empty every
//! such rule is the plain SLUB rule, so a policy that never fills them
//! gets the baseline for free. A statically dispatched [`SlabPolicy`]
//! decides only where the two designs differ: which slab to refill from,
//! when to return slabs to the page allocator, where a deferred object
//! waits, how a delivered one re-enters, and how a freeing thread assists
//! under hard pressure. [`slub`](crate::slub) and
//! [`prudence`](crate::prudence) each supply one; every other line — and
//! therefore every constant the comparison depends on — is shared. A cache
//! *is* its engine (`SlubCache` and `PrudenceCache` are aliases of
//! `SlabEngine<P>`), configured by [`EngineConfig`] alone.

mod cpu_slot;
mod frontend;
mod node;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use crossbeam::utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};

use pbs_mem::{OutOfMemory, PageAllocator};
use pbs_percpu::{FastCache, FastPop, FastPush};
use pbs_rcu::reclaim::{
    DomainHandle, EpochDomain, ReclaimBackend, ReclaimClient, ReclamationDomain,
};
use pbs_rcu::Rcu;
use pbs_telemetry::{EventKind, LogHistogram};

use crate::slab_layout::resolve_slab_index;
use crate::{
    AllocError, CacheStats, CacheStatsSnapshot, CpuRegistry, ListKind, ObjPtr, ObjectAllocator,
    RawSlab, SizingPolicy,
};

pub use cpu_slot::{CpuSlot, LatentEntry};
pub use frontend::{KmallocHeap, SlabFactory};
pub use node::{Node, Slab};

/// The settings every engine instance takes, whatever its policy — the
/// only cache configuration there is.
///
/// Setting `oom_retries` to zero disables the recovery ladder entirely,
/// reproducing the paper's unhardened baseline that reports out-of-memory
/// on the first slab-grow failure — the endurance experiment (Figure 3)
/// pins that configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of CPU slots (per-CPU object/latent cache pairs).
    pub ncpus: usize,
    /// Deferred-backlog soft watermark: when `deferred_outstanding`
    /// crosses it, freeing threads nudge the reclamation domain with an
    /// expedited drive.
    pub soft_watermark: usize,
    /// Deferred-backlog hard watermark: above it every freeing thread
    /// also assists reclaim, throttling producers to the reclaim rate.
    pub hard_watermark: usize,
    /// Recovery-ladder rungs to climb before reporting out-of-memory
    /// (§4.2, *Handling memory pressure*); zero turns the ladder off.
    pub oom_retries: usize,
}

impl EngineConfig {
    /// The default settings for `ncpus` CPU slots.
    ///
    /// # Panics
    ///
    /// Panics if `ncpus` is zero.
    pub fn new(ncpus: usize) -> Self {
        assert!(ncpus > 0, "need at least one CPU slot");
        Self {
            ncpus,
            soft_watermark: 4096,
            hard_watermark: 16384,
            oom_retries: 4,
        }
    }

    /// Sets the deferred-backlog pressure watermarks. `hard` is clamped to
    /// at least `soft` so the pressure levels stay ordered.
    pub fn with_watermarks(mut self, soft: usize, hard: usize) -> Self {
        self.soft_watermark = soft.max(1);
        self.hard_watermark = hard.max(self.soft_watermark);
        self
    }
}

impl Default for EngineConfig {
    /// One CPU slot.
    fn default() -> Self {
        Self::new(1)
    }
}

/// What an allocator design decides on top of the shared engine. The
/// engine builds its policy with [`Default`]: a policy carries no settings.
///
/// The trait is sealed: its only implementations are
/// [`SlubPolicy`](crate::slub::SlubPolicy) and
/// [`PrudencePolicy`](crate::prudence::PrudencePolicy), beside the engine
/// whose crate-private helpers they call. Every method receives the engine
/// it runs in. Lock order is slot lock → node lock; a hook that is handed a
/// slot or node guard must not acquire another of the same kind.
///
/// A policy cannot be written outside the crate:
///
/// ```compile_fail,E0277
/// use parking_lot::MutexGuard;
/// use pbs_alloc_api::engine::{CpuSlot, Node, SlabEngine, SlabPolicy};
/// use pbs_alloc_api::ObjPtr;
/// use pbs_mem::OutOfMemory as Oom;
///
/// #[derive(Default)]
/// struct P;
/// type E = SlabEngine<P>;
///
/// impl SlabPolicy for P {
///     const LABEL: &'static str = "mine";
///     fn select_slab(&self, _: &E, _: &mut Node, _: bool) -> Result<Option<usize>, Oom> {
///         Ok(None)
///     }
///     fn shrink_limit(&self, _: &E, _: &mut Node) -> Option<usize> { None }
///     fn defer(&self, _: &E, _: usize, _: MutexGuard<'_, CpuSlot>, _: ObjPtr, _: u64) {}
///     fn readmit(&self, _: &E, _: &[usize]) {}
///     fn assist(&self, _: &E) {}
/// }
/// ```
///
/// and the engine's helpers are not public API:
///
/// ```compile_fail,E0624
/// fn merge(cache: &pbs_alloc_api::prudence::PrudenceCache) {
///     let (cpu_idx, mut cpu) = cache.lock_cpu();
///     cache.merge_latent(cpu_idx, &mut cpu);
/// }
/// ```
pub trait SlabPolicy: sealed::Sealed + Default + Send + Sync + Sized + 'static {
    /// Short label for reports ("slub" or "prudence").
    const LABEL: &'static str;

    /// Picks (or grows) the slab the refill takes from next. `have` says
    /// the slot already holds at least one object; `Ok(None)` ends the
    /// refill with what it has.
    fn select_slab(
        &self,
        engine: &SlabEngine<Self>,
        node: &mut Node,
        have: bool,
    ) -> Result<Option<usize>, OutOfMemory>;

    /// Free-slab count above which the engine's shrink returns slabs to
    /// the page allocator; `None` leaves every slab where it is.
    fn shrink_limit(&self, engine: &SlabEngine<Self>, node: &mut Node) -> Option<usize>;

    /// The tail of `free_deferred`: the engine has stamped and counted the
    /// object and holds the slot lock (`cpu`); the policy parks the object
    /// until it is safe to reuse. `t_ns` is the stamp's defer time (0 =
    /// untimed), for the policy's trace record. Must drop `cpu` before
    /// entering the domain — a defer can deliver reclaimed objects back on
    /// this thread.
    fn defer(
        &self,
        engine: &SlabEngine<Self>,
        cpu_idx: usize,
        cpu: MutexGuard<'_, CpuSlot>,
        obj: ObjPtr,
        t_ns: u64,
    );

    /// Domain delivery: `addrs` were handed to the attached reclamation
    /// domain and are now safe to reuse. The engine settles the outstanding
    /// count afterwards.
    fn readmit(&self, engine: &SlabEngine<Self>, addrs: &[usize]);

    /// Hard-pressure assist, run by every freeing thread with no locks
    /// held. Must stay short and never block on a grace period.
    fn assist(&self, engine: &SlabEngine<Self>);
}

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// Spin budget on a busy home slot before trying neighbours: slot
/// critical sections are a few dozen instructions, so a handful of
/// `spin_loop` hints usually outlasts the holder without burning a
/// timeslice.
const SLOT_SPIN: usize = 24;

/// A slab cache for fixed-size objects, generic over its [`SlabPolicy`].
pub struct SlabEngine<P: SlabPolicy> {
    name: String,
    sizing: SizingPolicy,
    config: EngineConfig,
    pages: Arc<PageAllocator>,
    rcu: Arc<Rcu>,
    cpus: CpuRegistry,
    /// Per-CPU slot state, cache-padded so neighbouring slots (and their
    /// lock words) never share a line.
    slots: Vec<CachePadded<Mutex<CpuSlot>>>,
    /// Per-CPU zero-atomic hit path in front of the slot-locked object
    /// caches. Only immediately-reusable objects park here; the defer
    /// pipeline never touches it.
    fast: FastCache,
    node: Mutex<Node>,
    stats: CacheStats,
    /// Objects handed to `free_deferred` and not yet reusable, wherever
    /// they wait (latent caches, latent slabs, the domain). Drives the
    /// pressure gauge and the OOM ladder.
    deferred_outstanding: AtomicUsize,
    reclaim: DomainHandle,
    /// The attached domain's backend, read once at construction so a
    /// policy can branch on it without a virtual call per defer.
    backend: ReclaimBackend,
    policy: P,
}

impl<P: SlabPolicy> std::fmt::Debug for SlabEngine<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabEngine")
            .field("name", &self.name)
            .field("object_size", &self.sizing.object_size)
            .field("deferred_outstanding", &self.deferred_outstanding())
            .finish()
    }
}

/// The wall clock for a trace record, or 0 (the telemetry convention for
/// "untimed") while tracing is disabled.
fn trace_clock() -> u64 {
    if pbs_telemetry::enabled() {
        pbs_telemetry::now_nanos()
    } else {
        0
    }
}

/// Credits `addr`'s site stamp and records its defer→reusable age into
/// `delay` (the cache's `defer_delay_ns`): the step every reclaim route
/// takes before the object can be reused. Unstamped addresses (deferred
/// while tracing was off) record nothing.
fn settle_stamp(delay: &LogHistogram, addr: usize) {
    if let Some(age) = pbs_telemetry::site::note_reclaimed(addr) {
        delay.record(age);
    }
}

impl<P: SlabPolicy> SlabEngine<P> {
    /// Creates a cache for `object_size`-byte objects over its own epoch
    /// domain on `rcu` (the paper's scheme).
    ///
    /// # Panics
    ///
    /// Panics if `object_size` is zero or too large for the maximum slab
    /// order, or `config.ncpus` is zero.
    pub fn new(
        name: &str,
        object_size: usize,
        config: EngineConfig,
        pages: Arc<PageAllocator>,
        rcu: Arc<Rcu>,
    ) -> Arc<Self> {
        let domain = Arc::new(EpochDomain::new(rcu));
        Self::with_domain(name, object_size, config, pages, domain)
    }

    /// Like [`new`](Self::new), but attached to an explicit `domain`. The
    /// sizing heuristics are the same for every policy (paper §4.3).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn with_domain(
        name: &str,
        object_size: usize,
        mut config: EngineConfig,
        pages: Arc<PageAllocator>,
        domain: Arc<dyn ReclamationDomain>,
    ) -> Arc<Self> {
        let sizing = SizingPolicy::for_object_size(object_size);
        config.soft_watermark = config.soft_watermark.max(1);
        config.hard_watermark = config.hard_watermark.max(config.soft_watermark);
        let backend = domain.backend();
        let engine = Arc::new_cyclic(|weak: &Weak<Self>| {
            let client: Weak<dyn ReclaimClient> = weak.clone();
            Self {
                name: name.to_owned(),
                sizing,
                pages,
                rcu: Arc::clone(domain.rcu()),
                cpus: CpuRegistry::new(config.ncpus),
                slots: (0..config.ncpus)
                    .map(|_| CachePadded::new(Mutex::new(CpuSlot::default())))
                    .collect(),
                fast: FastCache::with_slots(sizing.object_cache_size, config.ncpus),
                node: Mutex::new(Node::default()),
                stats: CacheStats::new(config.ncpus),
                deferred_outstanding: AtomicUsize::new(0),
                backend,
                reclaim: DomainHandle::attach(domain, client),
                config,
                policy: P::default(),
            }
        });
        engine.record_fastpath_engine();
        engine
    }

    /// The sizing policy in effect (identical for every [`SlabPolicy`]).
    pub fn policy(&self) -> &SizingPolicy {
        &self.sizing
    }

    /// The RCU domain this cache is integrated with.
    pub fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }

    /// The reclamation domain this cache is attached to.
    pub fn reclaim_domain(&self) -> &Arc<dyn ReclamationDomain> {
        &self.reclaim.domain
    }

    /// The backend of [`reclaim_domain`](Self::reclaim_domain).
    pub fn reclaim_backend(&self) -> ReclaimBackend {
        self.backend
    }

    /// Deferred objects not yet reusable, wherever they wait.
    pub fn deferred_outstanding(&self) -> usize {
        self.deferred_outstanding.load(Ordering::Relaxed)
    }

    /// The cache's counters, histograms and event ring.
    pub(crate) fn counters(&self) -> &CacheStats {
        &self.stats
    }

    /// Locks the node lists, counting contention for the statistics.
    pub(crate) fn lock_node(&self) -> MutexGuard<'_, Node> {
        if let Some(guard) = self.node.try_lock() {
            return guard;
        }
        // Acquire first, count after: recording between the failed
        // try_lock and the blocking acquire would let a relock race
        // double-count one contention event, and the counter bump below is
        // single-writer precisely because the node lock is already held.
        let guard = self.node.lock();
        self.stats.shard(0).node_lock_contended.bump();
        guard
    }

    /// Locks one specific CPU slot (sweeps over every slot).
    pub fn lock_slot(&self, cpu_idx: usize) -> MutexGuard<'_, CpuSlot> {
        self.slots[cpu_idx].lock()
    }

    /// Acquires a per-CPU slot for the hot paths. Fast path: an
    /// uncontended `try_lock` of the home slot. On contention: note the
    /// miss, spin briefly (the holder's critical section is short), then
    /// steal any other free slot, and only then block on the home slot.
    /// Returns the index actually locked so callers attribute stats to
    /// the right shard.
    pub(crate) fn lock_cpu(&self) -> (usize, MutexGuard<'_, CpuSlot>) {
        let home = self.cpus.current_cpu().0;
        if let Some(guard) = self.slots[home].try_lock() {
            return (home, guard);
        }
        self.stats.shard(home).cpu_slot_misses.add_contended(1);
        // Time the slow path only: the fast path above stays clock-free.
        let t0 = trace_clock();
        let acquired = self.lock_cpu_slow(home);
        if t0 != 0 {
            self.stats
                .slot_wait_ns
                .record(pbs_telemetry::now_nanos().saturating_sub(t0));
        }
        acquired
    }

    /// Contended continuation of [`lock_cpu`](Self::lock_cpu): spin on the
    /// home slot, steal any free neighbour, then block on home.
    fn lock_cpu_slow(&self, home: usize) -> (usize, MutexGuard<'_, CpuSlot>) {
        for _ in 0..SLOT_SPIN {
            std::hint::spin_loop();
            if let Some(guard) = self.slots[home].try_lock() {
                return (home, guard);
            }
        }
        let n = self.slots.len();
        for offset in 1..n {
            let idx = (home + offset) % n;
            if let Some(guard) = self.slots[idx].try_lock() {
                return (idx, guard);
            }
        }
        (home, self.slots[home].lock())
    }

    /// Settles `n` deferred objects that just became reusable.
    fn note_reclaimed(&self, n: usize) {
        if n > 0 {
            let prev = self.deferred_outstanding.fetch_sub(n, Ordering::Relaxed);
            // Downward pressure transitions happen here, as the backlog
            // drains. Gauge/counter only — no ring event, because reclaim
            // runs under varying lock contexts and lanes are single-writer.
            self.update_pressure(prev.saturating_sub(n));
        }
    }

    /// Folds the current backlog into the pressure gauge. Returns the
    /// transition if this caller won it (see `CacheStats::update_pressure`).
    fn update_pressure(&self, outstanding: usize) -> Option<(usize, usize)> {
        self.stats.update_pressure(
            outstanding,
            self.config.soft_watermark,
            self.config.hard_watermark,
        )
    }

    /// Post-defer governor actions, run with no locks held.
    ///
    /// An *upward* transition nudges the reclamation domain once with an
    /// expedited drive (soft response: the backlog is usually waiting on
    /// epoch advances, not on CPU time). While the gauge sits at the hard
    /// level, every freeing thread additionally assists reclaim — the
    /// defer producers are throttled to the reclaim rate instead of
    /// growing the backlog without bound.
    fn apply_backpressure(&self, transition: Option<(usize, usize)>) {
        if let Some((from, to)) = transition {
            if to > from {
                self.reclaim.domain.expedite();
            }
        }
        if self.stats.cold.pressure_level.load(Ordering::Relaxed) >= 2 {
            self.stats
                .cold
                .assisted_merges
                .fetch_add(1, Ordering::Relaxed);
            self.policy.assist(self);
        }
    }

    /// Wire code of the fast path's current engine for trace payloads:
    /// 1 = rseq, 2 = slot-lock emulation.
    fn fastpath_engine_code(&self) -> u64 {
        match self.fast.engine() {
            pbs_percpu::Engine::Rseq => 1,
            pbs_percpu::Engine::Locks => 2,
        }
    }

    /// Traces the engine the fast path selected at construction (`a` =
    /// engine code, `b` = per-CPU slot capacity). Runs before the cache is
    /// shared, so the node lane has no other writer yet.
    fn record_fastpath_engine(&self) {
        self.stats.record_node_event(
            EventKind::FastpathEngine,
            self.fastpath_engine_code(),
            self.sizing.object_cache_size as u64,
        );
    }

    /// Sweeps the node's pending list at the current epoch: merges
    /// grace-period-complete latent-slab objects back into their slabs,
    /// records each one's defer→reusable delay and settles the backlog
    /// count. O(1) while the front stamp is inside its grace period, and
    /// one empty-deque check for a policy that parks nothing in latent
    /// slabs. Returns the number reclaimed.
    pub(crate) fn settle_pending(&self, node: &mut Node) -> usize {
        let reclaimed = node.reclaim_pending(self.rcu.current_epoch(), &self.stats.defer_delay_ns);
        self.note_reclaimed(reclaimed);
        reclaimed
    }

    /// MERGE_CACHES (Algorithm lines 60-65) on a held slot: moves latent
    /// objects whose grace period completed into the object cache, settles
    /// them in the backlog count, records each one's defer→reusable delay
    /// and traces the merge on lane `cpu_idx`. A slot with nothing to
    /// merge — every slot of a policy that keeps the latent cache empty —
    /// pays one deque check. Returns the number merged.
    pub(crate) fn merge_latent(&self, cpu_idx: usize, cpu: &mut CpuSlot) -> usize {
        let Some(&(_, front)) = cpu.latent.front() else {
            return 0;
        };
        let epoch = self.rcu.current_epoch();
        if !front.is_completed_at(epoch) {
            return 0;
        }
        let stats = &self.stats;
        let merged = cpu.merge_caches(epoch, self.sizing.object_cache_size, |obj| {
            settle_stamp(&stats.defer_delay_ns, obj.addr());
        });
        self.note_reclaimed(merged);
        if merged > 0 {
            stats.ring.record(
                cpu_idx,
                EventKind::LatentMerge,
                stats.id(),
                merged as u64,
                cpu.latent.len() as u64,
            );
        }
        merged
    }

    /// Parks latent-cache entries in their latent slabs in one node-lock
    /// trip, pre-moving every slab whose list changes (Algorithm lines
    /// 49-59). The trip settles the pending list first: between refills
    /// nothing else merges grace-period-complete latent-slab objects, and a
    /// defer-heavy phase would otherwise keep them parked. A parked object
    /// keeps its site stamp; the sweep that returns it settles the stamp.
    /// Call with no slot lock held.
    pub(crate) fn defer_to_slabs(&self, entries: &[LatentEntry]) {
        if entries.is_empty() {
            return;
        }
        let mut node = self.lock_node();
        self.settle_pending(&mut node);
        for &(obj, gp) in entries {
            // SAFETY: latent entries hold objects this cache's `allocate`
            // minted, each deferred exactly once; the node lock is held.
            let index = unsafe { resolve_slab_index(obj, self.sizing.slab_bytes) };
            let obj_index = node.slab(index).raw.index_of(obj);
            node.park(index, obj_index, gp);
            if node.relist(index) {
                // Single-writer: the node lock is held, and it also owns
                // the node trace lane.
                self.stats.shard(0).pre_movements.bump();
                self.stats
                    .record_node_event(EventKind::SlabPremove, index as u64, gp.raw_epoch());
            }
        }
        self.shrink(&mut node);
    }

    /// Empties every slot's latent cache — merges what completed its grace
    /// period, parks the rest in latent slabs — then sweeps the pending
    /// list. Returns the objects the sweep made reusable.
    fn drain_latent(&self) -> usize {
        for cpu_idx in 0..self.slots.len() {
            let mut cpu = self.lock_slot(cpu_idx);
            self.merge_latent(cpu_idx, &mut cpu);
            let parked: Vec<LatentEntry> = cpu.latent.drain(..).collect();
            drop(cpu);
            self.defer_to_slabs(&parked);
        }
        self.settle_pending(&mut self.lock_node())
    }

    /// OOM ladder rung 1: makes every free object refillable without
    /// waiting for any grace period. Drains the fast path and every latent
    /// cache, returns every slot's object cache — merged objects included
    /// — to the slabs, where any slot's refill finds them, then shrinks.
    fn reclaim_local(&self) {
        self.flush_fastpath();
        self.drain_latent();
        for cpu_idx in 0..self.slots.len() {
            let mut cpu = self.lock_slot(cpu_idx);
            if cpu.obj_cache.is_empty() {
                continue;
            }
            self.stats.shard(cpu_idx).flushes.bump();
            let objs: Vec<ObjPtr> = cpu.obj_cache.drain(..).collect();
            drop(cpu);
            self.give_back(objs);
        }
        self.shrink(&mut self.lock_node());
    }

    /// Returns free objects to their slabs under an already-held node
    /// lock, then shrinks if too many slabs became free. Settles the
    /// pending list first: every flush is a node-lock trip anyway, and
    /// between refills nothing else does.
    fn give_back_locked(&self, node: &mut Node, objs: impl IntoIterator<Item = ObjPtr>) {
        self.settle_pending(node);
        for obj in objs {
            // SAFETY: callers only pass pointers minted by this cache's
            // `allocate`, each returned exactly once; the node lock is
            // held.
            let index = unsafe { resolve_slab_index(obj, self.sizing.slab_bytes) };
            node.slab_mut(index).raw.give_back(obj);
            node.relist(index);
        }
        self.shrink(node);
    }

    /// Returns free objects to their slabs and shrinks if warranted.
    pub fn give_back(&self, objs: impl IntoIterator<Item = ObjPtr>) {
        self.give_back_locked(&mut self.lock_node(), objs);
    }

    /// Returns fast-drained object addresses to their slabs under the
    /// node lock and traces the drain. `disabling` distinguishes a
    /// toggle-off drain from a quiesce/OOM flush in the event payload.
    fn give_back_fast(&self, addrs: &[usize], disabling: bool) {
        if addrs.is_empty() {
            return;
        }
        let mut node = self.lock_node();
        self.stats.record_node_event(
            EventKind::FastpathDrain,
            addrs.len() as u64,
            disabling as u64,
        );
        // SAFETY: only pointers minted by this cache's `allocate` are
        // pushed onto the fast path, and each was drained exactly once.
        self.give_back_locked(
            &mut node,
            addrs.iter().map(|&addr| unsafe { ObjPtr::from_addr(addr) }),
        );
    }

    /// Drains fast-parked objects to their slabs (quiesce/OOM paths).
    /// The fast path stays enabled and refills organically afterwards.
    fn flush_fastpath(&self) {
        self.give_back_fast(&self.fast.drain(), false);
    }

    fn record_fastpath_toggle(&self) {
        let _node = self.lock_node();
        self.stats.record_node_event(
            EventKind::FastpathToggle,
            self.fast.is_enabled() as u64,
            self.fastpath_engine_code(),
        );
    }

    /// Runtime fast-path toggle: disabling drains parked objects back to
    /// their slabs so the switchover is leak-free.
    pub fn fastpath_set_enabled(&self, enabled: bool) {
        self.give_back_fast(&self.fast.set_enabled(enabled), true);
        self.record_fastpath_toggle();
    }

    /// Live engine switch; parked objects are preserved by the slot
    /// mode-word protocol, so nothing drains here.
    pub fn fastpath_set_engine(&self, engine: pbs_percpu::Engine) {
        self.fast.set_engine(engine);
        self.record_fastpath_toggle();
    }

    /// MALLOC (Algorithm lines 1-12 and 29-33), fronted by the zero-atomic
    /// per-CPU fast path: an uncontended hit takes no lock and performs no
    /// atomic RMW, and its commit store is also its count (the slot's
    /// push count less what stays parked or was drained is its pops).
    #[inline]
    pub fn allocate(&self) -> Result<ObjPtr, AllocError> {
        if let FastPop::Hit(addr) = self.fast.pop() {
            // SAFETY: fast-parked addresses originate from `free` on this
            // cache, each handed out exactly once by the commit protocol.
            return Ok(unsafe { ObjPtr::from_addr(addr) });
        }
        self.allocate_slow()
    }

    /// Everything past a fast-path miss; kept out of line so the hit path
    /// pays no prologue for the loop's frame.
    #[inline(never)]
    fn allocate_slow(&self) -> Result<ObjPtr, AllocError> {
        let mut attempts = 0;
        let mut counted_request = false;
        loop {
            let (cpu_idx, mut cpu) = self.lock_cpu();
            // All shard bumps below are single-writer: this thread holds
            // the slot lock matching the shard.
            let shard = self.stats.shard(cpu_idx);
            if !counted_request {
                shard.alloc_requests.bump();
                counted_request = true;
            }
            if let Some(obj) = cpu.obj_cache.pop() {
                shard.cache_hits.bump();
                shard.live_delta.bump_add();
                self.stats.record_oom_recovery(cpu_idx, attempts);
                return Ok(obj);
            }
            // Lines 7-11: merge grace-period-complete latent objects and
            // retry before touching the node lists.
            if self.merge_latent(cpu_idx, &mut cpu) > 0 {
                if let Some(obj) = cpu.obj_cache.pop() {
                    shard.latent_hits.bump();
                    shard.live_delta.bump_add();
                    self.stats.record_oom_recovery(cpu_idx, attempts);
                    return Ok(obj);
                }
            }
            match self.refill(cpu_idx, &mut cpu) {
                Ok(obj) => {
                    shard.live_delta.bump_add();
                    self.stats.record_oom_recovery(cpu_idx, attempts);
                    return Ok(obj);
                }
                Err(e) => {
                    // Lines 31-33: recover via the ladder instead of
                    // failing, while deferred objects remain. Release the
                    // CPU lock first so writers on this slot can progress.
                    drop(cpu);
                    if attempts >= self.config.oom_retries || self.deferred_outstanding() == 0 {
                        return Err(e);
                    }
                    attempts += 1;
                    self.run_recovery_stage(attempts);
                }
            }
        }
    }

    /// One rung of the staged OOM recovery ladder (§4.2, *Handling memory
    /// pressure*, hardened): escalate from cheap-and-local to
    /// grace-period-blocking to backoff-and-retry. Every entry counts as an
    /// `oom_wait` — the ladder only runs when allocation actually failed.
    fn run_recovery_stage(&self, attempt: usize) {
        self.stats.cold.oom_waits.fetch_add(1, Ordering::Relaxed);
        match attempt {
            // Stage 1: consolidate free objects without waiting for any
            // grace period.
            1 => self.reclaim_local(),
            // Stage 2: drive the domain (expedited) and reclaim everything
            // reclaimable.
            2 => self.emergency_reclaim(true),
            // Stage 3+: the backlog is waiting on something slower (a
            // pinned reader, a wedged epoch); back off so it can make
            // progress, then drain again.
            n => {
                let shift = (n - 3).min(4) as u32;
                std::thread::sleep(std::time::Duration::from_micros(50 << shift));
                self.emergency_reclaim(false);
            }
        }
    }

    /// Backend-generic blocking drain: every defer issued before this
    /// call has been delivered when it returns.
    fn domain_synchronize(&self, expedited: bool) {
        if expedited {
            self.reclaim.domain.synchronize_expedited();
        } else {
            self.reclaim.domain.synchronize();
        }
    }

    /// OOM deferral (lines 31-32): wait for the domain (`expedited`
    /// drives it eagerly), then reclaim everything reclaimable.
    fn emergency_reclaim(&self, expedited: bool) {
        self.flush_fastpath();
        self.domain_synchronize(expedited);
        let reclaimed = self.drain_latent();
        let mut node = self.lock_node();
        // Node lock held: the node lane is ours to write.
        self.stats.record_node_event(
            EventKind::OomDefer,
            reclaimed as u64,
            self.rcu.current_epoch(),
        );
        self.shrink(&mut node);
    }

    /// REFILL_OBJECT_CACHE (Algorithm lines 13-30): takes objects from the
    /// slabs [`select_slab`](SlabPolicy::select_slab) names — a whole
    /// cache's worth, less one per latent object (partial refill, line 14).
    ///
    /// Returns the object the caller asked for; `Ok` *proves* the cache
    /// produced one rather than leaving the caller to pop-and-hope. Every
    /// failure — including injected page-allocator faults — comes back as
    /// `Err`, never an unwind: the locks held here (`parking_lot`) do not
    /// poison, and nothing on this path panics on OOM.
    fn refill(&self, cpu_idx: usize, cpu: &mut CpuSlot) -> Result<ObjPtr, AllocError> {
        // Fault hook: an injected `fastpath.disable` flips the per-CPU
        // fast path live (drain-on-disable), so chaos runs exercise the
        // switchover under load. Consulted before any node lock: the
        // toggle takes it internally.
        if let Some(faults) = self.pages.faults() {
            if faults.should_fail(pbs_fault::site::FASTPATH_DISABLE) {
                self.fastpath_set_enabled(!self.fast.is_enabled());
            }
        }
        let shard = self.stats.shard(cpu_idx);
        shard.refills.bump();
        // Objects in the latent cache will merge into this one after their
        // grace period, so ask for that many fewer. The quarter-cache
        // floor keeps a latent cache full of objects still inside their
        // grace period from degrading refills to single objects; the
        // proportional flush absorbs any overflow when they merge.
        let size = self.sizing.object_cache_size;
        let mut want = size.saturating_sub(cpu.latent.len()).max(size / 4).max(1);
        if want < size {
            shard.partial_refills.bump();
        }
        let mut node = self.lock_node();
        while want > 0 {
            let have = !cpu.obj_cache.is_empty();
            let Some(index) = self.policy.select_slab(self, &mut node, have)? else {
                break;
            };
            let taken = node.slab_mut(index).raw.take(want, &mut cpu.obj_cache);
            want -= taken;
            node.relist(index);
            if taken == 0 {
                // Defensive: a selected slab must yield objects; avoid
                // spinning if it did not.
                break;
            }
        }
        cpu.obj_cache.pop().ok_or(AllocError::OutOfMemory)
    }

    /// GROW (line 29): allocates one slab from the page allocator.
    pub(crate) fn grow(&self, node: &mut Node) -> Result<usize, OutOfMemory> {
        let block = self.pages.allocate_aligned_at(
            self.sizing.slab_bytes,
            self.sizing.slab_bytes,
            pbs_fault::site::SLAB_GROW,
        )?;
        let color = node.next_color;
        node.next_color = node.next_color.wrapping_add(1);
        // The slab table index must be stamped into the header; reserve the
        // slot first.
        let index = node.free_slots.last().copied().unwrap_or(node.slabs.len());
        let slab = Slab::new(RawSlab::new(block, &self.sizing, index, color));
        let actual = node.insert_slab(slab);
        debug_assert_eq!(actual, index);
        self.stats.record_grow();
        Ok(index)
    }

    /// SHRINK (line 59): returns fully-free slabs beyond the policy's
    /// [`shrink_limit`](SlabPolicy::shrink_limit) to the page allocator.
    /// Slabs pre-moved to the free list that still hold deferred objects
    /// are *not* releasable; merging those back is the pending-list
    /// sweep's job alone ([`settle_pending`](Self::settle_pending)).
    pub(crate) fn shrink(&self, node: &mut Node) {
        let Some(limit) = self.policy.shrink_limit(self, node) else {
            return;
        };
        if node.lists.len(ListKind::Free) <= limit {
            return;
        }
        for index in node.lists.list(ListKind::Free).to_vec() {
            if node.lists.len(ListKind::Free) <= limit {
                break;
            }
            if node.slab(index).releasable() {
                let slab = node.remove_slab(index);
                self.pages.free_pages(slab.raw.into_block());
                self.stats.record_shrink();
            }
        }
    }

    /// Flushes an overflowing object cache down to half a cache, less one
    /// object per latent entry (proportional flush, §4.2), so the merge
    /// after the grace period fits.
    pub(crate) fn flush_obj_cache(&self, cpu_idx: usize, cpu: &mut CpuSlot) {
        if cpu.obj_cache.is_empty() {
            return;
        }
        self.stats.shard(cpu_idx).flushes.bump();
        let keep = (self.sizing.object_cache_size / 2).saturating_sub(cpu.latent.len());
        let n = cpu.obj_cache.len().saturating_sub(keep);
        let excess: Vec<ObjPtr> = cpu.obj_cache.drain(..n).collect();
        self.give_back(excess);
    }

    /// Puts a reusable object into a held slot's object cache, flushing
    /// on overflow (the slot-locked tail of `free`).
    pub(crate) fn recycle(&self, cpu_idx: usize, cpu: &mut CpuSlot, obj: ObjPtr) {
        cpu.obj_cache.push(obj);
        if cpu.obj_cache.len() > self.sizing.object_cache_size {
            self.flush_obj_cache(cpu_idx, cpu);
        }
    }

    /// Immediate free.
    ///
    /// # Safety
    ///
    /// As [`ObjectAllocator::free`].
    #[inline]
    pub unsafe fn free(&self, obj: ObjPtr) {
        // Zero-atomic fast path: park the object in this CPU's slot. Full
        // or disabled slots fall through to the slot-locked cache.
        if let FastPush::Pushed = self.fast.push(obj.addr()) {
            return;
        }
        self.free_slow(obj);
    }

    #[inline(never)]
    fn free_slow(&self, obj: ObjPtr) {
        let (cpu_idx, mut cpu) = self.lock_cpu();
        let shard = self.stats.shard(cpu_idx);
        shard.frees.bump();
        shard.live_delta.bump_sub();
        self.recycle(cpu_idx, &mut cpu, obj);
    }

    /// FREE_DEFERRED (Algorithm lines 34-51): the one retire entry point.
    /// Stamps the call site, counts the object, updates the pressure
    /// gauge, hands the object to the policy and applies backpressure.
    ///
    /// # Safety
    ///
    /// As [`ObjectAllocator::free_deferred`].
    #[track_caller]
    pub unsafe fn free_deferred(&self, obj: ObjPtr) {
        // Stamp before entering the allocator: a domain defer can scan and
        // reclaim on this same stack, and every reclaim route settles the
        // stamp. The stamp's time is the object's only defer clock.
        let t_ns = if pbs_telemetry::enabled() {
            pbs_telemetry::site::note_deferred(
                obj.addr(),
                pbs_telemetry::site::intern(std::panic::Location::caller()),
                self.sizing.object_size,
            )
        } else {
            0
        };
        let outstanding = self.deferred_outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        let transition = self.update_pressure(outstanding);
        // The shard bumps need the slot lock: `live_delta` is a
        // single-writer counter also updated by the locked alloc/free
        // paths with plain load+store pairs.
        let (cpu_idx, cpu) = self.lock_cpu();
        let shard = self.stats.shard(cpu_idx);
        shard.deferred_frees.bump();
        shard.live_delta.bump_sub();
        if let Some((_, to)) = transition {
            // Slot lock held: lane `cpu_idx` is ours to write.
            self.stats.ring.record(
                cpu_idx,
                EventKind::PressureChange,
                self.stats.id(),
                to as u64,
                outstanding as u64,
            );
        }
        self.policy.defer(self, cpu_idx, cpu, obj, t_ns);
        // Locks dropped: safe to expedite / assist without convoying the
        // slot behind a grace-period drive.
        self.apply_backpressure(transition);
    }

    /// Hands a deferred object to the attached domain; it comes back
    /// through [`SlabPolicy::readmit`] once no captured reader can hold
    /// it. Call with no cache locks held.
    pub(crate) fn defer_to_domain(&self, obj: ObjPtr) {
        self.reclaim.domain.defer(self.reclaim.client, obj.addr());
    }

    /// Drains what was deferred before the call: blocks until those
    /// objects are reusable. Frees other threads defer meanwhile may still
    /// be outstanding on return. Parks nothing across a quiesce:
    /// fast-cached objects go back to their slabs so peak/fragmentation
    /// measurements stay comparable.
    pub fn quiesce(&self) {
        self.flush_fastpath();
        for _ in 0..64 {
            if self.deferred_outstanding() == 0 {
                return;
            }
            self.domain_synchronize(false);
            self.drain_latent();
        }
    }

    /// Snapshot of the cache statistics.
    pub fn stats(&self) -> CacheStatsSnapshot {
        self.stats.snapshot_with_fastpath(
            self.sizing.object_size,
            self.sizing.slab_bytes,
            &self.fast.snapshot(),
        )
    }
}

impl<P: SlabPolicy> ReclaimClient for SlabEngine<P> {
    /// Domain delivery: the backend proved no captured reader can still
    /// hold these objects. Runs with no domain locks held and never
    /// re-enters the domain. Each stamp is settled before `readmit` makes
    /// its object allocatable again.
    fn reclaim_addrs(&self, addrs: &[usize]) {
        if addrs.is_empty() {
            return;
        }
        for &addr in addrs {
            settle_stamp(&self.stats.defer_delay_ns, addr);
        }
        self.policy.readmit(self, addrs);
        self.note_reclaimed(addrs.len());
    }
}

impl<P: SlabPolicy> Drop for SlabEngine<P> {
    fn drop(&mut self) {
        // Return every slab's pages (no readers can remain at drop time).
        // Objects still live or deferred go away with their slab; a domain
        // delivery that arrives later finds the client gone and drops the
        // address.
        for slab in self.node.get_mut().slabs.drain(..).flatten() {
            self.pages.free_pages(slab.raw.into_block());
        }
    }
}

/// The one [`ObjectAllocator`] implementation: every public cache type is
/// a [`SlabEngine`].
impl<P: SlabPolicy> ObjectAllocator for SlabEngine<P> {
    #[inline]
    fn allocate(&self) -> Result<ObjPtr, AllocError> {
        SlabEngine::allocate(self)
    }

    #[inline]
    unsafe fn free(&self, obj: ObjPtr) {
        SlabEngine::free(self, obj);
    }

    unsafe fn free_deferred(&self, obj: ObjPtr) {
        SlabEngine::free_deferred(self, obj);
    }

    fn object_size(&self) -> usize {
        self.sizing.object_size
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }

    fn reclaim_domain(&self) -> Option<&Arc<dyn ReclamationDomain>> {
        Some(&self.reclaim.domain)
    }

    fn stats(&self) -> CacheStatsSnapshot {
        SlabEngine::stats(self)
    }

    fn telemetry(&self) -> pbs_telemetry::ComponentTelemetry {
        self.stats.telemetry()
    }

    fn quiesce(&self) {
        SlabEngine::quiesce(self);
    }

    fn deferred_outstanding(&self) -> usize {
        SlabEngine::deferred_outstanding(self)
    }

    fn fastpath_set_enabled(&self, enabled: bool) {
        SlabEngine::fastpath_set_enabled(self, enabled);
    }

    fn fastpath_enabled(&self) -> bool {
        self.fast.is_enabled()
    }

    fn fastpath_set_engine(&self, engine: pbs_percpu::Engine) {
        SlabEngine::fastpath_set_engine(self, engine);
    }
}
