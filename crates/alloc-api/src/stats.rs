//! Slab-cache statistics: the raw material for the paper's Figures 7–11.
//!
//! # Hot-path design
//!
//! Counters touched on every allocation or free live in per-CPU
//! [`StatShard`]s, one cache-padded block per CPU slot, and are updated
//! with plain `Relaxed` load/store pairs instead of atomic
//! read-modify-writes. The discipline that makes this sound mirrors the
//! kernel's percpu counters: a shard's single-writer counters are only
//! bumped while the owning per-CPU slot lock is held, so at most one
//! thread writes a given counter at a time and the lock's release/acquire
//! edges order successive writers. Readers ([`CacheStats::snapshot`]) sum
//! the shards locklessly and may observe a bump late — fine for
//! reporting, which only runs after quiescence.
//!
//! The single-writer lock need not be a *slot* lock: node-path counters
//! (`node_lock_contended`, `pre_movements`) are bumped only under the
//! node lock and attributed to shard 0. Events recorded outside any lock
//! (slot-lock misses) use [`Counter::add_contended`], a real `fetch_add`,
//! because they can race; they are off the hot path by definition. Never
//! mix the two schemes on one counter — an RMW landing between a lock
//! holder's load and store is silently overwritten.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;
use pbs_telemetry::table::Cell;
use pbs_telemetry::{ComponentTelemetry, EventKind, EventRing, LogHistogram, NamedHistogram};
use serde::{Deserialize, Serialize};

/// Process-wide cache id allocator, so trace events from different caches
/// stay distinguishable in a merged timeline (`src` field of each record).
static NEXT_CACHE_ID: AtomicU32 = AtomicU32::new(1);

/// Records per trace lane. Cache hot paths emit at most a handful of event
/// kinds per operation, and the interesting windows (OOM deferral, slab
/// churn storms) are short; 256 records per lane keeps the footprint at a
/// few KiB per CPU slot while surviving typical bursts.
const CACHE_LANE_CAPACITY: usize = 256;

/// A single event counter inside a [`StatShard`].
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1 from the shard's owner (the holder of the matching per-CPU
    /// slot lock). A plain load/store pair — no atomic RMW — so callers
    /// must hold that lock; see the module docs.
    #[inline]
    pub fn bump(&self) {
        self.bump_by(1);
    }

    /// Owner-only add, as [`Counter::bump`].
    #[inline]
    pub fn bump_by(&self, n: u64) {
        self.0.store(
            self.0.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Adds from any thread (atomic RMW) for events recorded outside the
    /// shard's slot lock.
    #[inline]
    pub fn add_contended(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Cell for Counter {
    fn get(&self) -> u64 {
        Counter::get(self)
    }
    /// Owner-only, as [`Counter::bump`].
    fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A signed per-shard tally (live-object delta: allocations minus frees
/// attributed to this shard; individual shards can go negative when an
/// object is allocated on one CPU and freed on another).
///
/// Deliberately has no contended (RMW) variant: every update races with
/// the slot-lock holders' plain load+store bumps, so *all* writers must
/// hold the owning slot's lock — a fetch_add from outside it can land
/// between a holder's load and store and be silently overwritten.
#[derive(Debug, Default)]
pub struct SignedCounter(AtomicI64);

impl SignedCounter {
    /// Owner-only `+1`; same single-writer contract as [`Counter::bump`].
    #[inline]
    pub fn bump_add(&self) {
        self.0.store(
            self.0.load(Ordering::Relaxed).wrapping_add(1),
            Ordering::Relaxed,
        );
    }

    /// Owner-only `-1`.
    #[inline]
    pub fn bump_sub(&self) {
        self.0.store(
            self.0.load(Ordering::Relaxed).wrapping_sub(1),
            Ordering::Relaxed,
        );
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

pbs_telemetry::counter_table! {
    /// Immutable snapshot of [`CacheStats`] plus derived metrics.
    ///
    /// # Example
    ///
    /// ```
    /// use pbs_alloc_api::CacheStats;
    ///
    /// let stats = CacheStats::new(2);
    /// stats.record_grow();
    /// let snap = stats.snapshot(64, 4096);
    /// assert_eq!(snap.slabs_peak, 1);
    /// assert_eq!(snap.slab_churns(), 0); // a grow without a shrink is not a churn pair
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
    pub struct CacheStatsSnapshot {
        /// Object size of the cache ([`merge`](Self::merge) keeps `self`'s).
        pub object_size: usize,
        /// Bytes per slab ([`merge`](Self::merge) keeps `self`'s).
        pub slab_bytes: usize,
    }

    /// Per-CPU block of hot-path counters. One per CPU slot, cache-padded so
    /// slots never false-share.
    pub struct StatShard {
        /// Allocation requests served (successfully).
        alloc_requests: Counter => u64, counter "pbs_cache_alloc_requests_total", sum;
        /// Allocations served directly from the per-CPU object cache.
        cache_hits: Counter => u64, counter "pbs_cache_hits_total", sum;
        /// Allocations served after merging safe deferred objects from the
        /// latent cache (Prudence only; counted as hits for Figure 7, tracked
        /// separately for diagnostics).
        latent_hits: Counter => u64, counter "pbs_cache_latent_hits_total", sum;
        /// Immediate frees.
        frees: Counter => u64, counter "pbs_cache_frees_total", sum;
        /// Deferred frees (`free_deferred`).
        deferred_frees: Counter => u64, counter "pbs_cache_deferred_frees_total", sum;
        /// Object-cache refill operations (from node slabs).
        refills: Counter => u64, counter "pbs_cache_refills_total", sum;
        /// Refills that were *partial* because deferred objects were pending in
        /// the latent cache (Prudence optimization, §4.2).
        partial_refills: Counter => u64, counter "pbs_cache_partial_refills_total", sum;
        /// Object-cache flush operations (to node slabs).
        flushes: Counter => u64, counter "pbs_cache_flushes_total", sum;
        /// Latent-cache pre-flush operations. No producer since PR 22 (the
        /// worker is gone); a `benchmark` issue retires
        /// `prudence.preflushes_per_kop` and then this field.
        preflushes: Counter => u64, counter "pbs_cache_preflushes_total", sum;
        /// Slab pre-movements between full/partial/free lists (Prudence, §4.2).
        pre_movements: Counter => u64, counter "pbs_cache_pre_movements_total", sum;
        /// Times the node-list lock was contended (try_lock failed).
        /// Single-writer under the *node* lock — bumped (plain [`Counter::bump`])
        /// only by the thread that just acquired it, and always attributed to
        /// shard 0. Never bump this without holding the node lock: it would
        /// race the existing non-atomic bumps.
        node_lock_contended: Counter => u64, counter "pbs_cache_node_lock_contended_total", sum;
        /// Times the home CPU slot's try_lock failed and the allocation took
        /// the slow path (spin, neighbor slot, or blocking acquire). Recorded
        /// outside slot locks: use [`Counter::add_contended`].
        cpu_slot_misses: Counter => u64, counter "pbs_cache_cpu_slot_misses_total", sum;
    } + {
        /// Live-object delta attributed to this shard; the shards' sum,
        /// clamped at zero, is the snapshot's `live_objects`.
        pub live_delta: SignedCounter,
    }

    /// The cold, globally-shared counters of a cache: real atomics, bumped
    /// with RMWs off the hot path.
    pub struct ColdStats {
        /// Slab-cache grow operations (slabs allocated from the page
        /// allocator). Cold: a grow amortizes over a whole slab of objects.
        grows: AtomicU64 => u64, counter "pbs_cache_grows_total", sum;
        /// Slab-cache shrink operations (slabs returned to the page allocator).
        shrinks: AtomicU64 => u64, counter "pbs_cache_shrinks_total", sum;
        /// Times an allocation had to wait for a grace period under memory
        /// pressure instead of triggering OOM (Prudence, §4.2).
        oom_waits: AtomicU64 => u64, counter "pbs_cache_oom_waits_total", sum;
        /// Slabs currently allocated.
        slabs_current: AtomicUsize => usize, gauge "pbs_cache_slabs_current", sum;
        /// Peak of `slabs_current` (Figure 10). Merging sums it: the
        /// snapshots describe different caches, whose peaks add up to the
        /// most slabs the set can have held.
        slabs_peak: AtomicUsize => usize, gauge "pbs_cache_slabs_peak", sum;
        /// Deferred-backlog pressure level (gauge): 0 = nominal, 1 = soft
        /// watermark crossed, 2 = hard watermark crossed. Maintained by
        /// [`CacheStats::update_pressure`]; a merge reports the worst.
        pressure_level: AtomicUsize => usize, gauge "pbs_cache_pressure_level", max;
        /// Pressure-level transitions, either direction.
        pressure_transitions: AtomicU64 => u64, counter "pbs_cache_pressure_transitions_total", sum;
        /// Caller-assisted reclaim passes run by freeing threads while at the
        /// hard pressure level.
        assisted_merges: AtomicU64 => u64, counter "pbs_cache_assisted_merges_total", sum;
    }

    derived {
        /// Live (requested) objects at snapshot time.
        live_objects: u64, gauge "pbs_cache_live_objects", sum;
        /// OOM recoveries via ladder stage 1 (local latent flush).
        oom_recoveries_stage1: u64, counter "pbs_cache_oom_recoveries_total{stage=\"1\"}", sum;
        /// OOM recoveries via ladder stage 2 (expedited GP + full merge).
        oom_recoveries_stage2: u64, counter "pbs_cache_oom_recoveries_total{stage=\"2\"}", sum;
        /// OOM recoveries via ladder stage 3 (backoff retry).
        oom_recoveries_stage3: u64, counter "pbs_cache_oom_recoveries_total{stage=\"3\"}", sum;
        /// Operations (pops + pushes) served by the per-CPU fast path with
        /// no lock and no atomic RMW. Counted for both engines; under the
        /// emulation engine these are slot-mutex hits with the same
        /// semantics, so trajectories stay comparable across hosts.
        rseq_hits: u64, counter "pbs_cache_fastpath_hits_total", sum;
        /// rseq critical sections restarted by preemption/migration (always
        /// zero under the emulation engine).
        rseq_restarts: u64, counter "pbs_cache_fastpath_restarts_total", sum;
        /// Fast-path operations that bounced to the slow path (empty/full
        /// slot, disabled fast path, engine switch in flight, contention).
        fastpath_fallbacks: u64, counter "pbs_cache_fastpath_fallbacks_total", sum;
    }
}

/// Live statistics maintained by a slab cache: sharded hot counters plus
/// a few cold, globally-shared ones.
///
/// Allocators update shards on their hot paths; experiments read a
/// [`CacheStatsSnapshot`] at the end of a run.
#[derive(Debug)]
pub struct CacheStats {
    /// Process-unique id for this cache, stamped into every trace event's
    /// `src` field.
    id: u32,
    /// One shard per CPU slot.
    shards: Box<[CachePadded<StatShard>]>,
    /// Event ring with one lane per CPU slot plus a final lane reserved
    /// for node-path events (see [`CacheStats::node_lane`]). The lane
    /// assignment reuses the single-writer discipline that protects the
    /// shards: slot lanes are written only under the owning slot lock,
    /// the node lane only under the node lock, so lane writes never race.
    pub ring: EventRing,
    /// Time spent waiting for a per-CPU slot lock when the home slot's
    /// `try_lock` missed (nanoseconds). Only slow paths record here.
    pub slot_wait_ns: LogHistogram,
    /// `free_deferred` → object-reusable delay (nanoseconds) of every
    /// stamped deferred object, whichever route made it reusable: a
    /// latent-cache merge, the latent-slab sweep or a domain delivery. The
    /// age comes from the object's site stamp, the only defer clock.
    pub defer_delay_ns: LogHistogram,
    /// The cold counters and gauges (grows, shrinks, slab and pressure
    /// levels).
    pub cold: ColdStats,
    /// Successful OOM-ladder recoveries attributed to each rung (index 0 =
    /// stage 1 local flush, 1 = stage 2 expedited GP + merge, 2 = stage 3
    /// backoff retry). Cold: one bump per recovered allocation.
    pub oom_recoveries: [AtomicU64; 3],
}

impl Default for CacheStats {
    fn default() -> Self {
        Self::new(1)
    }
}

impl CacheStats {
    /// Creates zeroed statistics with one shard per CPU slot (at least
    /// one).
    pub fn new(nshards: usize) -> Self {
        let nshards = nshards.max(1);
        Self {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..nshards)
                .map(|_| CachePadded::new(StatShard::default()))
                .collect(),
            // One lane per CPU slot plus the node lane.
            ring: EventRing::new(nshards + 1, CACHE_LANE_CAPACITY),
            slot_wait_ns: LogHistogram::default(),
            defer_delay_ns: LogHistogram::default(),
            cold: ColdStats::default(),
            oom_recoveries: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Publishes the deferred-backlog pressure level implied by
    /// `outstanding` against the `soft`/`hard` watermarks. Returns
    /// `Some((from, to))` when this caller won the transition (so exactly
    /// one racing thread runs any transition side effect), `None` when the
    /// level is unchanged or another thread transitioned first.
    pub fn update_pressure(
        &self,
        outstanding: usize,
        soft: usize,
        hard: usize,
    ) -> Option<(usize, usize)> {
        let new = if outstanding >= hard {
            2
        } else if outstanding >= soft {
            1
        } else {
            0
        };
        let old = self.cold.pressure_level.load(Ordering::Relaxed);
        if new == old {
            return None;
        }
        if self
            .cold
            .pressure_level
            .compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.cold
                .pressure_transitions
                .fetch_add(1, Ordering::Relaxed);
            Some((old, new))
        } else {
            None
        }
    }

    /// Attributes a successful allocation that needed the OOM ladder to
    /// the rung that unblocked it (`attempts` = ladder entries so far,
    /// clamped to the last rung; 0 = no ladder, nothing to record) and
    /// traces it on `lane`, whose slot lock the caller holds.
    pub fn record_oom_recovery(&self, lane: usize, attempts: usize) {
        if attempts == 0 {
            return;
        }
        let stage = attempts.min(self.oom_recoveries.len());
        self.oom_recoveries[stage - 1].fetch_add(1, Ordering::Relaxed);
        self.ring
            .record(lane, EventKind::OomRecovery, self.id, stage as u64, 1);
    }

    /// Process-unique id for this cache (stamped into trace events).
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Index of the trace lane reserved for events recorded under the
    /// node lock (grow/shrink/pre-movement). Per-CPU hot-path events use
    /// the slot index as the lane.
    #[inline]
    pub fn node_lane(&self) -> usize {
        self.ring.lanes() - 1
    }

    /// Records a trace event on the node lane. Callers must hold the node
    /// lock (or otherwise be the only writer of that lane), matching the
    /// single-writer ring discipline.
    #[inline]
    pub fn record_node_event(&self, kind: EventKind, a: u64, b: u64) {
        self.ring.record(self.node_lane(), kind, self.id, a, b);
    }

    /// The shard for CPU slot `cpu` (wrapped into range, like CPU-slot
    /// selection itself).
    #[inline]
    pub fn shard(&self, cpu: usize) -> &StatShard {
        // Callers pass an in-range slot index on every hot path; branch
        // instead of `%` so the common case skips a hardware divide.
        let n = self.shards.len();
        let idx = if cpu < n { cpu } else { cpu % n };
        &self.shards[idx]
    }

    /// Records that a slab was allocated, maintaining the peak watermark.
    ///
    /// The peak is folded in with `fetch_max`: `slabs_peak` only ever
    /// increases and ends up at least `slabs_current`'s value as observed
    /// here. A concurrent grow publishing a larger peak makes this call's
    /// contribution moot, and `fetch_max` stops right there instead of
    /// retrying a CAS it can no longer win.
    pub fn record_grow(&self) {
        self.cold.grows.fetch_add(1, Ordering::Relaxed);
        let now = self.cold.slabs_current.fetch_add(1, Ordering::Relaxed) + 1;
        self.cold.slabs_peak.fetch_max(now, Ordering::Relaxed);
        self.record_node_event(EventKind::SlabGrow, now as u64, 0);
    }

    /// Records that a slab was returned to the page allocator.
    pub fn record_shrink(&self) {
        self.cold.shrinks.fetch_add(1, Ordering::Relaxed);
        let before = self.cold.slabs_current.fetch_sub(1, Ordering::Relaxed);
        self.record_node_event(EventKind::SlabShrink, before.saturating_sub(1) as u64, 0);
    }

    /// Telemetry view of this cache: slot-wait and defer-delay histograms
    /// plus the event-ring snapshot.
    pub fn telemetry(&self) -> ComponentTelemetry {
        ComponentTelemetry::new(
            self.ring.snapshot(),
            vec![
                NamedHistogram {
                    name: "slot_wait_ns".to_string(),
                    hist: self.slot_wait_ns.snapshot(),
                },
                NamedHistogram {
                    name: "defer_delay_ns".to_string(),
                    hist: self.defer_delay_ns.snapshot(),
                },
            ],
        )
    }

    /// Takes a consistent-enough snapshot for reporting, summing all
    /// shards.
    pub fn snapshot(&self, object_size: usize, slab_bytes: usize) -> CacheStatsSnapshot {
        self.snapshot_with_fastpath(
            object_size,
            slab_bytes,
            &pbs_percpu::FastPathSnapshot::default(),
        )
    }

    /// [`snapshot`](Self::snapshot) plus the allocator's per-CPU
    /// fast-path totals. Fast-path hits never touch the shards (that is
    /// the point), so they are folded in here: a fast pop is an
    /// allocation request served from cache, a fast push is an immediate
    /// free, and both move the live-object balance — *before* the
    /// non-negative clamp, because with a fast cache in front the shard
    /// sum alone can legitimately go negative (alloc on the fast path,
    /// free on the slow path).
    pub fn snapshot_with_fastpath(
        &self,
        object_size: usize,
        slab_bytes: usize,
        fast: &pbs_percpu::FastPathSnapshot,
    ) -> CacheStatsSnapshot {
        let mut snap = CacheStatsSnapshot {
            object_size,
            slab_bytes,
            oom_recoveries_stage1: self.oom_recoveries[0].load(Ordering::Relaxed),
            oom_recoveries_stage2: self.oom_recoveries[1].load(Ordering::Relaxed),
            oom_recoveries_stage3: self.oom_recoveries[2].load(Ordering::Relaxed),
            ..CacheStatsSnapshot::default()
        };
        self.cold.add_into(&mut snap);
        let mut live = 0i64;
        for shard in self.shards.iter() {
            shard.add_into(&mut snap);
            live += shard.live_delta.get();
        }
        snap.alloc_requests += fast.alloc_hits;
        snap.cache_hits += fast.alloc_hits;
        snap.frees += fast.free_hits;
        snap.rseq_hits = fast.alloc_hits + fast.free_hits;
        snap.rseq_restarts = fast.restarts;
        snap.fastpath_fallbacks = fast.fallbacks;
        live += fast.alloc_hits as i64 - fast.free_hits as i64;
        snap.live_objects = live.max(0) as u64;
        snap
    }
}

impl CacheStatsSnapshot {
    /// Percentage of allocation requests served from the object cache
    /// (Figure 7). Latent-cache merges count as hits, as in the paper:
    /// "eligible deferred objects ... are merged into the object cache and
    /// the allocation request is served from the object cache".
    pub fn hit_percent(&self) -> f64 {
        if self.alloc_requests == 0 {
            return 0.0;
        }
        100.0 * (self.cache_hits + self.latent_hits) as f64 / self.alloc_requests as f64
    }

    /// Object-cache churns: pairs of refill/flush operations (Figure 8).
    pub fn object_cache_churns(&self) -> u64 {
        self.refills.min(self.flushes)
    }

    /// Slab churns: pairs of grow/shrink operations (Figure 9).
    pub fn slab_churns(&self) -> u64 {
        self.grows.min(self.shrinks)
    }

    /// Total frees of any kind.
    pub fn total_frees(&self) -> u64 {
        self.frees + self.deferred_frees
    }

    /// Allocations that recovered from OOM via any ladder stage.
    pub fn oom_recoveries_total(&self) -> u64 {
        self.oom_recoveries_stage1 + self.oom_recoveries_stage2 + self.oom_recoveries_stage3
    }

    /// Percentage of frees that were deferred (Figure 12).
    pub fn deferred_free_percent(&self) -> f64 {
        let total = self.total_frees();
        if total == 0 {
            return 0.0;
        }
        100.0 * self.deferred_frees as f64 / total as f64
    }

    /// Total fragmentation `f_t = allocated / requested` (paper §4.2):
    /// slab memory held by the allocator divided by memory the cache user
    /// actually has live. Returns `None` when no objects are live. Only
    /// meaningful on an unmerged snapshot: [`merge`](Self::merge) sums
    /// `slabs_current` and `live_objects` across caches but keeps `self`'s
    /// `object_size` and `slab_bytes`.
    pub fn total_fragmentation(&self) -> Option<f64> {
        let requested = self.live_objects * self.object_size as u64;
        if requested == 0 {
            return None;
        }
        Some((self.slabs_current * self.slab_bytes) as f64 / requested as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap_with(f: impl FnOnce(&CacheStats)) -> CacheStatsSnapshot {
        let s = CacheStats::new(2);
        f(&s);
        s.snapshot(64, 4096)
    }

    #[test]
    fn hit_percent_counts_latent_hits() {
        let snap = snap_with(|s| {
            s.shard(0).alloc_requests.bump_by(10);
            s.shard(0).cache_hits.bump_by(6);
            s.shard(1).latent_hits.bump_by(2);
        });
        assert!((snap.hit_percent() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn hit_percent_zero_requests() {
        assert_eq!(snap_with(|_| {}).hit_percent(), 0.0);
    }

    #[test]
    fn churns_are_pairs() {
        let snap = snap_with(|s| {
            s.shard(0).refills.bump_by(10);
            s.shard(1).flushes.bump_by(7);
            s.cold.grows.store(3, Ordering::Relaxed);
            s.cold.shrinks.store(5, Ordering::Relaxed);
        });
        assert_eq!(snap.object_cache_churns(), 7);
        assert_eq!(snap.slab_churns(), 3);
    }

    #[test]
    fn deferred_free_percent() {
        let snap = snap_with(|s| {
            s.shard(0).frees.bump_by(75);
            s.shard(1).deferred_frees.bump_by(25);
        });
        assert!((snap.deferred_free_percent() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_formula() {
        let snap = snap_with(|s| {
            s.cold.slabs_current.store(2, Ordering::Relaxed);
            for _ in 0..64 {
                s.shard(0).live_delta.bump_add();
            }
        });
        // 2 slabs * 4096 B / (64 objects * 64 B) = 2.0
        assert!((snap.total_fragmentation().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fragmentation_none_when_no_live_objects() {
        assert_eq!(snap_with(|_| {}).total_fragmentation(), None);
    }

    #[test]
    fn shards_sum_and_wrap() {
        let s = CacheStats::new(2);
        s.shard(0).alloc_requests.bump();
        s.shard(1).alloc_requests.bump();
        // Slot index wraps modulo shard count, like CPU-slot selection.
        s.shard(2).alloc_requests.bump();
        s.shard(3).cpu_slot_misses.add_contended(2);
        let snap = s.snapshot(64, 4096);
        assert_eq!(snap.alloc_requests, 3);
        assert_eq!(snap.cpu_slot_misses, 2);
    }

    #[test]
    fn cross_shard_live_delta_balances() {
        // Alloc on shard 0, free on shard 1: shard 1 goes negative but the
        // summed snapshot stays balanced.
        let s = CacheStats::new(2);
        for _ in 0..3 {
            s.shard(0).live_delta.bump_add();
        }
        s.shard(1).live_delta.bump_sub();
        assert_eq!(s.shard(1).live_delta.get(), -1);
        assert_eq!(s.snapshot(64, 4096).live_objects, 2);
    }

    #[test]
    fn grow_shrink_update_peak() {
        let s = CacheStats::new(1);
        s.record_grow();
        s.record_grow();
        s.record_shrink();
        s.record_grow();
        let snap = s.snapshot(8, 4096);
        assert_eq!(snap.slabs_current, 2);
        assert_eq!(snap.slabs_peak, 2);
        assert_eq!(snap.grows, 3);
        assert_eq!(snap.shrinks, 1);
    }

    /// Every table row, without naming one: `merge`, `delta` and serde
    /// follow the table, and preloaded blocks snapshot back every row —
    /// the derived rows through the fast-path fold that defines them.
    #[test]
    fn every_row_snapshots_merges_and_deltas_by_its_table_rule() {
        let want = pbs_telemetry::table::check_table(
            CacheStatsSnapshot::FIELDS,
            CacheStatsSnapshot::merge,
            CacheStatsSnapshot::delta,
        );
        let s = CacheStats::new(2);
        s.shard(1).preload(&want);
        s.cold.preload(&want);
        s.oom_recoveries[0].store(want.oom_recoveries_stage1, Ordering::Relaxed);
        s.oom_recoveries[1].store(want.oom_recoveries_stage2, Ordering::Relaxed);
        s.oom_recoveries[2].store(want.oom_recoveries_stage3, Ordering::Relaxed);
        for _ in 0..want.live_objects {
            s.shard(0).live_delta.bump_add();
        }
        // Fast-path pops are requests, hits and live objects the shards
        // never saw; the fast path's own three counters are derived rows.
        let fast = pbs_percpu::FastPathSnapshot {
            alloc_hits: want.rseq_hits,
            free_hits: 0,
            restarts: want.rseq_restarts,
            fallbacks: want.fastpath_fallbacks,
        };
        let mut expect = want;
        expect.alloc_requests += fast.alloc_hits;
        expect.cache_hits += fast.alloc_hits;
        expect.live_objects += fast.alloc_hits;
        assert_eq!(s.snapshot_with_fastpath(0, 0, &fast), expect);
        // The hot block's layout is part of the hit path's cost.
        assert_eq!(std::mem::size_of::<StatShard>(), 13 * 8);
    }

    #[test]
    fn cache_ids_are_unique() {
        let a = CacheStats::new(1);
        let b = CacheStats::new(1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn grow_shrink_emit_node_lane_events() {
        let s = CacheStats::new(2);
        s.record_grow();
        s.record_grow();
        s.record_shrink();
        assert_eq!(s.node_lane(), 2); // one lane per slot + the node lane
        let t = s.telemetry();
        assert_eq!(t.count_of(pbs_telemetry::EventKind::SlabGrow), 2);
        assert_eq!(t.count_of(pbs_telemetry::EventKind::SlabShrink), 1);
        // Every event is stamped with this cache's id and the node lane.
        for e in &t.events {
            assert_eq!(e.src, s.id());
            assert_eq!(e.lane as usize, s.node_lane());
        }
    }

    #[test]
    fn telemetry_exposes_named_histograms() {
        let s = CacheStats::new(1);
        s.slot_wait_ns.record(100);
        s.defer_delay_ns.record(5);
        s.defer_delay_ns.record(9);
        let t = s.telemetry();
        assert_eq!(t.histogram("slot_wait_ns").unwrap().count, 1);
        assert_eq!(t.histogram("defer_delay_ns").unwrap().count, 2);
        assert!(t.histogram("no_such_histogram").is_none());
    }
}
