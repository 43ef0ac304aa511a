//! Per-CPU critical sections with two interchangeable engines.
//!
//! The hot paths of both allocators (`prudence`, `pbs-slub`) want an
//! uncontended alloc/free pair to perform **zero atomic
//! read-modify-writes and zero lock acquisitions** — the property the
//! paper attributes to Prudence's per-CPU object caches running under
//! kernel preemption control. Userspace has no `preempt_disable`, but
//! Linux offers the next best thing: restartable sequences
//! ([`rseq(2)`]), where the kernel *restarts* a registered critical
//! section whenever the thread is preempted or migrated, so a
//! load→compute→single-commit-store sequence is per-CPU atomic without
//! any `lock`-prefixed instruction.
//!
//! This crate packages that as a [`FastCache`]: a per-CPU array stack of
//! `usize` values (object addresses) with push/pop commit points. Two
//! engines implement the protocol behind one API:
//!
//! * [`Engine::Rseq`] — the real thing. Requires Linux ≥ 4.18 on
//!   x86-64/glibc with `membarrier(PRIVATE_EXPEDITED_RSEQ)` available
//!   (the fence that lets another thread *stop* all in-flight critical
//!   sections, which remote drains need). Selected automatically, like
//!   the membarrier fallback in `pbs-rcu`.
//! * [`Engine::Locks`] — a portable emulation that performs the same
//!   slot operations under a per-slot `parking_lot` mutex (today's
//!   slot-lock protocol). Always available; the only choice under Miri
//!   or on non-rseq platforms, and forceable with `PBS_FASTPATH=locks`.
//!
//! Engines are **live-switchable per cache**: every slot carries a mode
//! word (`off` / `rseq` / `locks`) that the rseq critical section checks
//! *inside* the commit window and the lock engine checks under its
//! mutex. Switching modes takes every slot lock, parks the slots in
//! `off`, issues one rseq fence (aborting any still-running critical
//! section), and only then installs the new mode — so a stale reader of
//! the engine hint can never commit against the wrong protocol; it just
//! bails to the caller's slow path.
//!
//! Statistics (`alloc_hits`, `free_hits`, `restarts`, `fallbacks`) are
//! accumulated in per-thread single-writer counters — plain load+store
//! bumps, since counting must not reintroduce the atomics the fast path
//! just removed — registered with a shared sink that
//! [`FastCache::snapshot`] reads through, so no count ever waits on a
//! thread-exit flush.
//!
//! [`rseq(2)`]: https://man7.org/linux/man-pages/man2/rseq.2.html

mod rseq;
mod tls;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// Slot mode: no fast-path commits allowed (drains, engine switches).
const MODE_OFF: u32 = 0;
/// Slot mode: rseq critical sections may commit; the mutex is only for
/// remote drains and mode changes.
const MODE_RSEQ: u32 = 1;
/// Slot mode: all slot operations go through the per-slot mutex.
const MODE_LOCKS: u32 = 2;

/// Which per-CPU protocol a [`FastCache`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Restartable-sequence commit points (Linux, x86-64, glibc ≥ 2.35).
    Rseq,
    /// Portable slot-lock emulation.
    Locks,
}

impl Engine {
    /// Stable label for logs, metrics and `PBS_FASTPATH`.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Rseq => "rseq",
            Engine::Locks => "locks",
        }
    }

    fn mode(self) -> u32 {
        match self {
            Engine::Rseq => MODE_RSEQ,
            Engine::Locks => MODE_LOCKS,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

const ENGINE_UNDECIDED: u8 = 0;
const ENGINE_RSEQ: u8 = 1;
const ENGINE_LOCKS: u8 = 2;

/// Process-wide default engine, decided once on first use (the same
/// decide-once pattern as the RCU membarrier strategy).
static DEFAULT_ENGINE: AtomicU8 = AtomicU8::new(ENGINE_UNDECIDED);

/// What the `PBS_FASTPATH` environment variable asks for. Unset and empty
/// both mean "no override" (`None` from [`parse_env`](Self::parse_env)):
/// CI's default leg exports `PBS_FASTPATH=''`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPathOverride {
    /// Force the portable slot-lock emulation.
    Locks,
}

impl FastPathOverride {
    /// Stable label, the value `PBS_FASTPATH` spells it with.
    pub fn label(self) -> &'static str {
        match self {
            FastPathOverride::Locks => "locks",
        }
    }

    /// Parses a `PBS_FASTPATH` value. Anything else is an error rather
    /// than the default, so a misspelt CI matrix leg cannot silently test
    /// the default engine and stay green.
    pub fn parse_env(value: Option<&str>) -> Result<Option<Self>, String> {
        match value {
            None | Some("") => Ok(None),
            Some("locks") => Ok(Some(FastPathOverride::Locks)),
            Some(other) => Err(format!(
                "PBS_FASTPATH={other:?} is not locks \
                 (unset or empty selects the default)"
            )),
        }
    }

    /// The process's `PBS_FASTPATH` setting, read and parsed once.
    ///
    /// # Panics
    ///
    /// Panics, naming the accepted values, if the variable holds anything
    /// [`parse_env`](Self::parse_env) rejects.
    pub fn from_env() -> Option<Self> {
        static CHOICE: OnceLock<Option<FastPathOverride>> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            let raw = std::env::var_os("PBS_FASTPATH").map(|v| v.to_string_lossy().into_owned());
            Self::parse_env(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
        })
    }
}

/// The engine new [`FastCache`]s start on: `locks` if `PBS_FASTPATH`
/// forces it, otherwise `rseq` when the kernel supports both restartable
/// sequences and the rseq membarrier fence, else `locks`.
pub fn default_engine() -> Engine {
    match DEFAULT_ENGINE.load(Ordering::Acquire) {
        ENGINE_RSEQ => Engine::Rseq,
        ENGINE_LOCKS => Engine::Locks,
        _ => decide_default(),
    }
}

#[cold]
fn decide_default() -> Engine {
    let want = if FastPathOverride::from_env() != Some(FastPathOverride::Locks) && rseq::supported()
    {
        Engine::Rseq
    } else {
        Engine::Locks
    };
    let code = match want {
        Engine::Rseq => ENGINE_RSEQ,
        Engine::Locks => ENGINE_LOCKS,
    };
    match DEFAULT_ENGINE.compare_exchange(
        ENGINE_UNDECIDED,
        code,
        Ordering::AcqRel,
        Ordering::Acquire,
    ) {
        Ok(_) => want,
        Err(prev) if prev == ENGINE_RSEQ => Engine::Rseq,
        Err(_) => Engine::Locks,
    }
}

/// Number of per-CPU slots a [`FastCache`] allocates: one per *possible*
/// CPU id, so an rseq-reported cpu number always indexes its own slot
/// (any sharing would break the per-CPU mutual-exclusion argument).
pub fn nslots() -> usize {
    static NSLOTS: AtomicUsize = AtomicUsize::new(0);
    let cached = NSLOTS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = possible_cpus();
    NSLOTS.store(n, Ordering::Relaxed);
    n
}

fn possible_cpus() -> usize {
    // `/sys/.../possible` is authoritative for the highest cpu id rseq
    // can ever report ("0-63" style); affinity-based counts can
    // undercount on restricted cpusets. Fall back gracefully (Miri,
    // non-Linux, sandboxes).
    if let Ok(s) = std::fs::read_to_string("/sys/devices/system/cpu/possible") {
        if let Some(hi) = s.trim().rsplit(['-', ',']).next() {
            if let Ok(hi) = hi.parse::<usize>() {
                return (hi + 1).min(4096);
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-CPU slot header, layout shared with the rseq assembly:
/// `current` at +0, `cap` at +8, `mode` at +16, `items` at +24.
/// Cache-line aligned and padded so neighbouring CPUs' slots (and their
/// lock words) never false-share.
#[repr(C, align(128))]
struct SlotHdr {
    /// Number of objects in `items`; the single commit store of both
    /// critical sections. Only written inside an rseq critical section
    /// or under the slot mutex with the matching mode.
    current: AtomicU64,
    /// Capacity of `items` (read-only after construction).
    cap: u64,
    /// `MODE_*`: which protocol may currently touch this slot. The rseq
    /// critical section re-checks it inside the commit window, so
    /// parking the slot in `MODE_OFF` plus one rseq fence is sufficient
    /// to stop all fast-path commits.
    mode: AtomicU32,
    _pad: u32,
    /// The object stack; heap buffer owned by the slot (freed in Drop).
    items: *mut usize,
}

struct Slot {
    hdr: SlotHdr,
    /// Taken by the lock engine's hit path, and by drains/mode switches
    /// under either engine.
    lock: Mutex<()>,
    /// Lock-engine counters, bumped with plain load+store while the slot
    /// lock is held (the repo's `Counter::bump` discipline): the hit
    /// path must not pay the thread-local stats machinery the rseq
    /// engine needs. Snapshots read them racily, which at worst lags by
    /// the op in flight.
    alloc_hits: AtomicU64,
    free_hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl Slot {
    /// One plain load+store increment; caller holds the slot lock.
    #[inline]
    fn bump(counter: &AtomicU64) {
        counter.store(counter.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

// SAFETY: `items` is an owned heap buffer; all access is serialized by
// the slot protocol (rseq per-CPU exclusivity or the slot mutex).
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

impl Slot {
    fn new(cap: usize) -> Self {
        let items = Box::leak(vec![0usize; cap].into_boxed_slice()).as_mut_ptr();
        Slot {
            hdr: SlotHdr {
                current: AtomicU64::new(0),
                cap: cap as u64,
                mode: AtomicU32::new(MODE_OFF),
                _pad: 0,
                items,
            },
            lock: Mutex::new(()),
            alloc_hits: AtomicU64::new(0),
            free_hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        // SAFETY: `items` was leaked from a Box<[usize]> of exactly
        // `cap` elements in `new` and never freed elsewhere.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.hdr.items,
                self.hdr.cap as usize,
            )));
        }
    }
}

/// Outcome of a fast-path pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPop {
    /// An object address; the caller owns it now.
    Hit(usize),
    /// The slot was empty — refill via the slow path.
    Empty,
    /// The fast path is unavailable (disabled, mode switch in flight,
    /// slot contended, restart budget exhausted); use the slow path.
    Bypass,
}

/// Outcome of a fast-path push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastPush {
    /// The object is parked in the per-CPU slot.
    Pushed,
    /// The slot is full — flush via the slow path.
    Full,
    /// The fast path is unavailable; use the slow path.
    Bypass,
}

/// Shared-sink totals for one [`FastCache`] (flushed thread-locals
/// included for the calling thread; other threads' in-flight counts
/// arrive when they exit or snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastPathSnapshot {
    /// Pops served without a lock or atomic RMW.
    pub alloc_hits: u64,
    /// Pushes absorbed without a lock or atomic RMW.
    pub free_hits: u64,
    /// rseq critical sections restarted (preemption/migration aborts).
    pub restarts: u64,
    /// Operations that fell back to the caller's slow path.
    pub fallbacks: u64,
}

/// How many aborted attempts a single operation tolerates before giving
/// the slow path a turn; under heavy preemption the slot lock is the
/// better protocol anyway.
const RESTART_BUDGET: u64 = 64;

static NEXT_CACHE_ID: AtomicU64 = AtomicU64::new(1);

/// A per-CPU stack of object addresses with commit-point push/pop.
///
/// Values are plain `usize`s (object addresses); 0, 1 and 2 are reserved
/// as protocol return codes and must never be pushed — no valid heap
/// address collides with them.
pub struct FastCache {
    id: u64,
    /// Routing hint only: the slot `mode` words are authoritative. A
    /// stale read here costs one bounced attempt, never a wrong commit.
    engine: AtomicU8,
    enabled: AtomicBool,
    /// Capacity-zero caches are permanently off and skip all counting.
    off: bool,
    slots: Box<[Slot]>,
    sink: Arc<tls::Sinks>,
}

impl std::fmt::Debug for FastCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastCache")
            .field("engine", &self.engine())
            .field("enabled", &self.is_enabled())
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl FastCache {
    /// A cache with one `cap`-element slot per possible CPU, enabled on
    /// the process default engine. `cap == 0` builds a permanently-off
    /// cache (every operation bypasses, nothing is counted).
    pub fn new(cap: usize) -> Self {
        Self::with_slots(cap, 0)
    }

    /// Like [`new`](Self::new), but with at least `min_slots` slots.
    ///
    /// The rseq engine indexes slots by cpu id and never reaches past
    /// [`nslots`]; the extra slots serve the lock engine, whose threads
    /// round-robin over all of them. An allocator sized for `n` CPU
    /// slots passes `n` here so the emulation engine spreads load the
    /// same way its regular per-CPU caches do, instead of funnelling
    /// every thread through the few slots a small machine would get.
    pub fn with_slots(cap: usize, min_slots: usize) -> Self {
        let n = if cap == 0 {
            1
        } else {
            nslots().max(min_slots.min(4096))
        };
        let slots: Box<[Slot]> = (0..n).map(|_| Slot::new(cap)).collect();
        let cache = FastCache {
            id: NEXT_CACHE_ID.fetch_add(1, Ordering::Relaxed),
            engine: AtomicU8::new(default_engine().mode() as u8),
            enabled: AtomicBool::new(cap > 0),
            off: cap == 0,
            slots,
            sink: Arc::new(tls::Sinks::default()),
        };
        if cap > 0 {
            let mode = cache.engine().mode();
            for slot in cache.slots.iter() {
                slot.hdr.mode.store(mode, Ordering::Release);
            }
        }
        cache
    }

    /// The engine this cache currently routes to.
    pub fn engine(&self) -> Engine {
        if self.engine.load(Ordering::Relaxed) == ENGINE_RSEQ {
            Engine::Rseq
        } else {
            Engine::Locks
        }
    }

    /// Whether the fast path is currently accepting operations.
    pub fn is_enabled(&self) -> bool {
        !self.off && self.enabled.load(Ordering::Relaxed)
    }

    /// Pops an object address from the current CPU's slot.
    // Inline into the allocators' hit paths: an outlined call here costs
    // a measurable share of the per-op budget (~10 % of a hit), and the
    // generic slab engine is instantiated in whichever downstream crate
    // names the cache type, where a plain `#[inline]` hint is not enough.
    #[inline(always)]
    pub fn pop(&self) -> FastPop {
        if self.off || !self.enabled.load(Ordering::Relaxed) {
            if !self.off {
                self.count(0, 0, 0, 1);
            }
            return FastPop::Bypass;
        }
        match self.engine() {
            Engine::Rseq => self.pop_rseq(),
            Engine::Locks => self.pop_locks(),
        }
    }

    /// Pushes an object address onto the current CPU's slot.
    ///
    /// `obj` must be a real object address (> 2; the low values are
    /// protocol codes).
    #[inline(always)]
    pub fn push(&self, obj: usize) -> FastPush {
        debug_assert!(obj > 2, "low values are reserved protocol codes");
        if self.off || !self.enabled.load(Ordering::Relaxed) {
            if !self.off {
                self.count(0, 0, 0, 1);
            }
            return FastPush::Bypass;
        }
        match self.engine() {
            Engine::Rseq => self.push_rseq(obj),
            Engine::Locks => self.push_locks(obj),
        }
    }

    #[cfg(all(pbs_rseq, not(miri)))]
    fn pop_rseq(&self) -> FastPop {
        let area = rseq::area();
        let mut restarts = 0u64;
        loop {
            let cpu = rseq::current_cpu(area) as usize;
            let Some(slot) = self.slots.get(cpu) else {
                // Unregistered thread (cpu_id = -1) or a cpu beyond the
                // possible range we sized for: never fast-path it.
                self.count(0, 0, restarts, 1);
                return FastPop::Bypass;
            };
            // SAFETY: slot layout matches the asm contract; `cpu` is the
            // id the critical section re-validates before committing.
            match unsafe { rseq::pop(area, cpu as u32, &slot.hdr) } {
                0 => {
                    self.count(0, 0, restarts, 1);
                    return FastPop::Empty;
                }
                1 => {
                    restarts += 1;
                    if restarts >= RESTART_BUDGET {
                        self.count(0, 0, restarts, 1);
                        return FastPop::Bypass;
                    }
                }
                2 => {
                    self.count(0, 0, restarts, 1);
                    return FastPop::Bypass;
                }
                obj => {
                    self.count(1, 0, restarts, 0);
                    return FastPop::Hit(obj);
                }
            }
        }
    }

    #[cfg(all(pbs_rseq, not(miri)))]
    fn push_rseq(&self, obj: usize) -> FastPush {
        let area = rseq::area();
        let mut restarts = 0u64;
        loop {
            let cpu = rseq::current_cpu(area) as usize;
            let Some(slot) = self.slots.get(cpu) else {
                self.count(0, 0, restarts, 1);
                return FastPush::Bypass;
            };
            // SAFETY: as in `pop_rseq`.
            match unsafe { rseq::push(area, cpu as u32, &slot.hdr, obj) } {
                0 => {
                    self.count(0, 1, restarts, 0);
                    return FastPush::Pushed;
                }
                1 => {
                    restarts += 1;
                    if restarts >= RESTART_BUDGET {
                        self.count(0, 0, restarts, 1);
                        return FastPush::Bypass;
                    }
                }
                2 => {
                    self.count(0, 0, restarts, 1);
                    return FastPush::Bypass;
                }
                3 => {
                    self.count(0, 0, restarts, 1);
                    return FastPush::Full;
                }
                other => unreachable!("rseq push returned {other}"),
            }
        }
    }

    // Without rseq support the engine hint can never be Rseq (decide()
    // and set_engine() refuse it), but keep the router total.
    #[cfg(not(all(pbs_rseq, not(miri))))]
    fn pop_rseq(&self) -> FastPop {
        self.pop_locks()
    }

    #[cfg(not(all(pbs_rseq, not(miri))))]
    fn push_rseq(&self, obj: usize) -> FastPush {
        self.push_locks(obj)
    }

    fn pop_locks(&self) -> FastPop {
        let slot = &self.slots[tls::lock_slot_index(self.slots.len())];
        let Some(_guard) = slot.lock.try_lock() else {
            // Not under the lock: the shared sink takes this rare bounce.
            self.count(0, 0, 0, 1);
            return FastPop::Bypass;
        };
        if slot.hdr.mode.load(Ordering::Relaxed) != MODE_LOCKS {
            Slot::bump(&slot.fallbacks);
            return FastPop::Bypass;
        }
        let cur = slot.hdr.current.load(Ordering::Relaxed);
        if cur == 0 {
            Slot::bump(&slot.fallbacks);
            return FastPop::Empty;
        }
        // SAFETY: mode is LOCKS and the mutex is held — exclusive slot
        // access; index is within `cap` by the push-side bound check.
        let obj = unsafe { *slot.hdr.items.add(cur as usize - 1) };
        slot.hdr.current.store(cur - 1, Ordering::Relaxed);
        Slot::bump(&slot.alloc_hits);
        FastPop::Hit(obj)
    }

    fn push_locks(&self, obj: usize) -> FastPush {
        let slot = &self.slots[tls::lock_slot_index(self.slots.len())];
        let Some(_guard) = slot.lock.try_lock() else {
            self.count(0, 0, 0, 1);
            return FastPush::Bypass;
        };
        if slot.hdr.mode.load(Ordering::Relaxed) != MODE_LOCKS {
            Slot::bump(&slot.fallbacks);
            return FastPush::Bypass;
        }
        let cur = slot.hdr.current.load(Ordering::Relaxed);
        if cur >= slot.hdr.cap {
            Slot::bump(&slot.fallbacks);
            return FastPush::Full;
        }
        // SAFETY: as in `pop_locks`.
        unsafe { *slot.hdr.items.add(cur as usize) = obj };
        slot.hdr.current.store(cur + 1, Ordering::Relaxed);
        Slot::bump(&slot.free_hits);
        FastPush::Pushed
    }

    /// Parks every slot in `MODE_OFF` (all slot locks held by the
    /// caller via `guards`), fencing out any in-flight rseq critical
    /// section, and returns the previous per-slot modes.
    fn park_slots(&self) -> bool {
        let mut was_rseq = false;
        for slot in self.slots.iter() {
            was_rseq |= slot.hdr.mode.swap(MODE_OFF, Ordering::SeqCst) == MODE_RSEQ;
        }
        if was_rseq {
            // One process-wide fence aborts every critical section that
            // read `MODE_RSEQ` before the swap; afterwards no fast-path
            // commit can land on any slot.
            rseq::fence();
        }
        std::sync::atomic::fence(Ordering::SeqCst);
        was_rseq
    }

    /// Takes the objects currently parked in a slot. Caller must hold
    /// the slot lock with the slot in `MODE_OFF` after [`park_slots`].
    fn take_slot(&self, slot: &Slot, out: &mut Vec<usize>) {
        let n = slot.hdr.current.load(Ordering::Relaxed) as usize;
        for i in 0..n {
            // SAFETY: slot parked and lock held — no concurrent writer.
            out.push(unsafe { *slot.hdr.items.add(i) });
        }
        slot.hdr.current.store(0, Ordering::Relaxed);
    }

    /// Removes and returns every parked object, leaving the cache
    /// enabled. Safe against concurrent hit-path traffic: concurrent
    /// operations bounce to the slow path while the drain holds the
    /// slots parked.
    pub fn drain(&self) -> Vec<usize> {
        if self.off {
            return Vec::new();
        }
        let guards: Vec<_> = self.slots.iter().map(|s| s.lock.lock()).collect();
        self.park_slots();
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            self.take_slot(slot, &mut out);
        }
        if self.enabled.load(Ordering::Relaxed) {
            let mode = self.engine().mode();
            for slot in self.slots.iter() {
                slot.hdr.mode.store(mode, Ordering::SeqCst);
            }
        }
        drop(guards);
        out
    }

    /// Enables or disables the fast path. Disabling drains and returns
    /// every parked object (the caller must hand them back to its slow
    /// path, keeping the switchover leak-free); enabling returns an
    /// empty vec.
    pub fn set_enabled(&self, on: bool) -> Vec<usize> {
        if self.off {
            return Vec::new();
        }
        let guards: Vec<_> = self.slots.iter().map(|s| s.lock.lock()).collect();
        self.enabled.store(on, Ordering::Relaxed);
        self.park_slots();
        let mut out = Vec::new();
        if on {
            let mode = self.engine().mode();
            for slot in self.slots.iter() {
                slot.hdr.mode.store(mode, Ordering::SeqCst);
            }
        } else {
            for slot in self.slots.iter() {
                self.take_slot(slot, &mut out);
            }
        }
        drop(guards);
        out
    }

    /// Switches the engine live, preserving parked objects. Requests
    /// for [`Engine::Rseq`] degrade to [`Engine::Locks`] when rseq is
    /// unavailable; returns the engine actually installed.
    pub fn set_engine(&self, engine: Engine) -> Engine {
        let engine = if engine == Engine::Rseq && !rseq::supported() {
            Engine::Locks
        } else {
            engine
        };
        if self.off {
            return engine;
        }
        let guards: Vec<_> = self.slots.iter().map(|s| s.lock.lock()).collect();
        self.engine.store(
            match engine {
                Engine::Rseq => ENGINE_RSEQ,
                Engine::Locks => ENGINE_LOCKS,
            },
            Ordering::Relaxed,
        );
        self.park_slots();
        if self.enabled.load(Ordering::Relaxed) {
            for slot in self.slots.iter() {
                slot.hdr.mode.store(engine.mode(), Ordering::SeqCst);
            }
        }
        drop(guards);
        engine
    }

    /// Approximate number of parked objects (racy snapshot over slots).
    pub fn cached(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.hdr.current.load(Ordering::Relaxed) as usize)
            .sum()
    }

    /// Totals across all threads: the sink reads through every live
    /// thread's registered counters plus the retired base, so counts
    /// are exact for any reader ordered after the writes (a joined
    /// scope, a quiesced testbed). Lock-engine counts live in the slots
    /// and are always current.
    pub fn snapshot(&self) -> FastPathSnapshot {
        let mut snap = self.sink.read();
        for slot in self.slots.iter() {
            snap.alloc_hits += slot.alloc_hits.load(Ordering::Relaxed);
            snap.free_hits += slot.free_hits.load(Ordering::Relaxed);
            snap.fallbacks += slot.fallbacks.load(Ordering::Relaxed);
        }
        snap
    }

    #[inline]
    fn count(&self, alloc_hits: u64, free_hits: u64, restarts: u64, fallbacks: u64) {
        tls::bump(self.id, &self.sink, alloc_hits, free_hits, restarts, fallbacks);
    }
}

impl Drop for FastCache {
    fn drop(&mut self) {
        // Objects still parked here belong to the owning allocator; it
        // must drain before dropping. Nothing to do for stats: sinks are
        // Arc-shared and thread-locals flush on their own schedule.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    // Object addresses for tests: anything > 2 works; use page-ish
    // values so mistakes are obvious.
    fn addr(i: usize) -> usize {
        0x10_000 + i * 8
    }

    #[test]
    fn fastpath_override_parses_strictly() {
        let locks = FastPathOverride::Locks;
        assert_eq!(FastPathOverride::parse_env(None), Ok(None));
        assert_eq!(FastPathOverride::parse_env(Some("")), Ok(None), "CI default leg");
        assert_eq!(FastPathOverride::parse_env(Some(locks.label())), Ok(Some(locks)));
        for typo in ["lock", "LOCKS", "off", "rseq", "0", "locks "] {
            let err = FastPathOverride::parse_env(Some(typo)).unwrap_err();
            assert!(err.contains("not locks"), "accepted value named: {err}");
        }
    }

    #[test]
    fn engine_labels_round_trip() {
        assert_eq!(Engine::Rseq.label(), "rseq");
        assert_eq!(Engine::Locks.label(), "locks");
        assert_eq!(Engine::Rseq.to_string(), "rseq");
    }

    #[test]
    fn zero_capacity_cache_is_permanently_off() {
        let c = FastCache::new(0);
        assert!(!c.is_enabled());
        assert_eq!(c.pop(), FastPop::Bypass);
        assert_eq!(c.push(addr(1)), FastPush::Bypass);
        assert!(c.drain().is_empty());
        let s = c.snapshot();
        assert_eq!(s.fallbacks, 0, "off caches must not count");
    }

    #[test]
    fn push_pop_round_trip_single_thread() {
        let c = FastCache::new(8);
        assert_eq!(c.pop(), FastPop::Empty);
        for i in 0..8 {
            assert_eq!(c.push(addr(i)), FastPush::Pushed);
        }
        // The lock engine fills one slot; the rseq engine fills the
        // current cpu's. Either way this thread sees LIFO order on an
        // unmigrated run — but migration may split pushes across slots,
        // so only assert conservation.
        let mut got = Vec::new();
        while let FastPop::Hit(v) = c.pop() {
            got.push(v);
        }
        let mut rest = c.drain();
        got.append(&mut rest);
        got.sort_unstable();
        let want: Vec<usize> = (0..8).map(addr).collect();
        assert_eq!(got, want);
        let s = c.snapshot();
        assert_eq!(s.free_hits, 8);
        assert!(s.alloc_hits <= 8);
    }

    #[test]
    fn full_slot_reports_full() {
        let c = FastCache::new(2);
        // On a multi-cpu box pushes may land on different slots; force
        // determinism by draining until a Full shows up or the total
        // pushed exceeds all slots' capacity.
        let total_cap = c.slots.len() * 2;
        let mut pushed = 0;
        let mut saw_full = false;
        for i in 0..total_cap + 1 {
            match c.push(addr(i)) {
                FastPush::Pushed => pushed += 1,
                FastPush::Full => {
                    saw_full = true;
                    break;
                }
                FastPush::Bypass => {}
            }
        }
        assert!(saw_full || pushed <= total_cap);
        c.drain();
    }

    #[test]
    fn disable_drains_and_bypasses() {
        let c = FastCache::new(8);
        assert_eq!(c.push(addr(1)), FastPush::Pushed);
        assert_eq!(c.push(addr(2)), FastPush::Pushed);
        let drained = c.set_enabled(false);
        let mut got: Vec<usize> = drained;
        got.sort_unstable();
        assert_eq!(got, vec![addr(1), addr(2)]);
        assert!(!c.is_enabled());
        assert_eq!(c.pop(), FastPop::Bypass);
        assert_eq!(c.push(addr(3)), FastPush::Bypass);
        assert!(c.set_enabled(true).is_empty());
        assert_eq!(c.push(addr(3)), FastPush::Pushed);
        assert_eq!(c.drain(), vec![addr(3)]);
    }

    #[test]
    fn engine_switch_preserves_parked_objects() {
        let c = FastCache::new(8);
        for i in 0..4 {
            assert_eq!(c.push(addr(i)), FastPush::Pushed);
        }
        let other = match c.engine() {
            Engine::Rseq => Engine::Locks,
            Engine::Locks => Engine::Rseq,
        };
        let installed = c.set_engine(other);
        // Crossing to rseq may degrade back to locks off-Linux; either
        // way the parked objects survive the switch.
        assert_eq!(c.engine(), installed);
        let mut got = c.drain();
        got.sort_unstable();
        assert_eq!(got, (0..4).map(addr).collect::<Vec<_>>());
    }

    /// The emulation engine, exercised concurrently at Miri-friendly
    /// size: conservation (every pushed value pops exactly once) and
    /// balanced stats.
    #[test]
    fn locks_engine_conserves_objects_across_threads() {
        let c = Arc::new(FastCache::new(4));
        c.set_engine(Engine::Locks);
        let threads = if cfg!(miri) { 2 } else { 4 };
        let per = if cfg!(miri) { 16 } else { 4000 };
        let popped: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let c = Arc::clone(&c);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let mut next = t * per;
                        let end = (t + 1) * per;
                        while next < end {
                            match c.push(addr(next)) {
                                FastPush::Pushed => next += 1,
                                FastPush::Full | FastPush::Bypass => {
                                    if let FastPop::Hit(v) = c.pop() {
                                        got.push(v);
                                    }
                                }
                            }
                        }
                        got
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut all: Vec<usize> = popped.into_iter().flatten().collect();
        let parked = c.drain();
        let parked_len = parked.len() as u64;
        all.extend(parked);
        all.sort_unstable();
        let want: Vec<usize> = (0..threads * per).map(addr).collect();
        assert_eq!(all, want, "an object was lost or double-popped");
        let s = c.snapshot();
        assert_eq!(s.free_hits, (threads * per) as u64);
        assert_eq!(s.alloc_hits, s.free_hits - parked_len);
    }

    /// Whatever engine the platform picked: hammer push/pop from many
    /// threads while the main thread flips enabled/engine, then check
    /// conservation. This is the live-switchover soundness test.
    #[test]
    #[cfg_attr(miri, ignore = "timing loop; the locks test covers Miri")]
    fn engine_flapping_never_loses_objects() {
        let c = Arc::new(FastCache::new(16));
        let stop = Arc::new(AtomicBool::new(false));
        let mut recovered: Vec<usize> = Vec::new();
        // Each worker reports (addresses it pushed, addresses it popped).
        let results: Vec<(Vec<usize>, Vec<usize>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let c = Arc::clone(&c);
                    let stop = Arc::clone(&stop);
                    s.spawn(move || {
                        let mut got = Vec::new();
                        let start = t * 100_000;
                        let mut next = start;
                        while !stop.load(Ordering::Relaxed) && next < start + 100_000 {
                            if c.push(addr(next)) == FastPush::Pushed {
                                next += 1;
                            }
                            if let FastPop::Hit(v) = c.pop() {
                                got.push(v);
                            }
                        }
                        ((start..next).map(addr).collect::<Vec<_>>(), got)
                    })
                })
                .collect();
            for round in 0..200 {
                match round % 4 {
                    0 => drop(c.set_engine(Engine::Locks)),
                    1 => recovered.extend(c.set_enabled(false)),
                    2 => drop(c.set_enabled(true)),
                    _ => drop(c.set_engine(default_engine())),
                }
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Every address pushed must be accounted for exactly once:
        // popped by some worker, drained by a disable round, or still
        // parked at the end.
        let mut pushed: HashSet<usize> = HashSet::new();
        let mut seen: Vec<usize> = recovered;
        for (p, g) in results {
            pushed.extend(p);
            seen.extend(g);
        }
        seen.extend(c.drain());
        let seen_set: HashSet<usize> = seen.iter().copied().collect();
        assert_eq!(seen_set.len(), seen.len(), "an object was double-popped");
        assert_eq!(seen_set, pushed, "conservation violated");
    }

    #[test]
    fn snapshot_counts_restarts_and_fallbacks_coherently() {
        let c = FastCache::new(4);
        for i in 0..4 {
            c.push(addr(i));
        }
        // One guaranteed fallback: disabled push.
        c.set_enabled(false);
        assert_eq!(c.push(addr(9)), FastPush::Bypass);
        let s = c.snapshot();
        assert!(s.fallbacks >= 1);
        assert_eq!(s.free_hits, 4);
    }
}
