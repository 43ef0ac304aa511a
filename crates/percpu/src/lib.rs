//! Per-CPU critical sections with two interchangeable engines.
//!
//! The hot paths of both allocators (`pbs-alloc-api`'s slab engine) want an
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
//! The hit path counts itself. A slot's commit word holds the depth of
//! its object stack in the low 16 bits and the number of pushes it ever
//! committed in the high 48, so a push commits `word + 0x1_0001` and a
//! pop `word - 1`: the one plain store that publishes the operation also
//! records it. [`FastCache::snapshot`] derives `free_hits` (pushes) and
//! `alloc_hits` (pushes less what is parked and what drains took) from
//! the slot words. Restarts and fallbacks happen only on the miss path,
//! which goes to the caller's locked slow path anyway, so they are
//! per-slot `fetch_add`s. No count lives in thread-local storage, so
//! none waits on a thread's exit.
//!
//! [`rseq(2)`]: https://man7.org/linux/man-pages/man2/rseq.2.html

#![deny(clippy::undocumented_unsafe_blocks)]

mod rseq;
mod tls;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, MutexGuard};

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

/// The commit word's depth field: the low 16 bits count the objects in
/// `items`, which bounds a slot's capacity at `0xFFFF`.
const DEPTH_MASK: u64 = 0xFFFF;
/// The commit word's push count: the high 48 bits count every push the
/// slot committed (about a month of pushes at 10^8/s on one slot before
/// it wraps, which the snapshot's modular arithmetic tolerates).
const PUSHES_SHIFT: u32 = 16;
/// What one push adds to the commit word: one object, one push.
const PUSH: u64 = (1 << PUSHES_SHIFT) | 1;

/// Per-CPU slot header, layout shared with the rseq assembly:
/// `commit` at +0, `cap` at +8, `mode` at +16, `items` at +24.
/// Cache-line aligned and padded so neighbouring CPUs' slots (and their
/// lock words) never false-share.
#[repr(C, align(128))]
struct SlotHdr {
    /// The commit word: depth of `items` in the low 16 bits
    /// ([`DEPTH_MASK`]), pushes committed in the high 48. The single
    /// commit store of both critical sections. Only written inside an
    /// rseq critical section or under the slot mutex with the matching
    /// mode.
    commit: AtomicU64,
    /// Capacity of `items`, `1..=DEPTH_MASK` (read-only after
    /// construction).
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

/// One per-CPU slot: the header the commit points write, its lock, and
/// the miss-path counters of the threads that ran on it. Hit counts
/// live in the header's commit word.
struct Slot {
    hdr: SlotHdr,
    /// Taken by the lock engine's hit path, and by drains, mode switches
    /// and snapshots under either engine. Guards the number of objects
    /// drains have taken from the slot, which the snapshot subtracts
    /// from the pushes to leave the pops.
    lock: Mutex<u64>,
    /// Restarted rseq critical sections of operations that ended here.
    restarts: AtomicU64,
    /// Operations that ended here and went to the caller's slow path.
    fallbacks: AtomicU64,
}

// SAFETY: `items` is an owned heap buffer no other value aliases, freed
// only in `Drop`; every other field is `Send`.
unsafe impl Send for Slot {}
// SAFETY: `items` is read and written only by the slot protocol, which
// serialises access: an rseq commit runs only on the slot's own CPU with
// the slot in `MODE_RSEQ`, and every other access holds the slot
// lock with the slot in `MODE_LOCKS` or parked in `MODE_OFF` behind an
// rseq fence. Every other field is an atomic, a `Mutex` or read-only.
unsafe impl Sync for Slot {}

impl Slot {
    fn new(cap: usize) -> Self {
        let items = Box::leak(vec![0usize; cap].into_boxed_slice()).as_mut_ptr();
        Slot {
            hdr: SlotHdr {
                commit: AtomicU64::new(0),
                cap: cap as u64,
                mode: AtomicU32::new(MODE_OFF),
                _pad: 0,
                items,
            },
            lock: Mutex::new(0),
            restarts: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Counts an operation that ended on this slot but goes to the
    /// caller's slow path, which takes a lock anyway: the RMWs cost the
    /// hit path nothing.
    #[cold]
    fn miss(&self, restarts: u64) {
        self.restarted(restarts);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts rseq restarts; only a preempted or migrated operation has
    /// any.
    #[inline]
    fn restarted(&self, restarts: u64) {
        if restarts != 0 {
            self.restarts.fetch_add(restarts, Ordering::Relaxed);
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

/// Totals for one [`FastCache`] over every thread that ever used it,
/// exact as of the moment [`FastCache::snapshot`] read each slot.
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

/// A per-CPU stack of object addresses with commit-point push/pop.
///
/// Values are plain `usize`s (object addresses); 0, 1 and 2 are reserved
/// as protocol return codes and must never be pushed — no valid heap
/// address collides with them. Objects still parked when the cache drops
/// belong to the owning allocator, which must drain first.
pub struct FastCache {
    /// Routing hint only: the slot `mode` words are authoritative. A
    /// stale read here costs one bounced attempt, never a wrong commit.
    engine: AtomicU8,
    enabled: AtomicBool,
    slots: Box<[Slot]>,
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
    /// the process default engine.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` is in `1..=0xFFFF`, the range the commit
    /// word's depth field holds.
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
    ///
    /// # Panics
    ///
    /// As for [`new`](Self::new).
    pub fn with_slots(cap: usize, min_slots: usize) -> Self {
        assert!(
            (1..=DEPTH_MASK as usize).contains(&cap),
            "fast cache capacity {cap} is outside 1..=0xFFFF"
        );
        let n = nslots().max(min_slots.min(4096));
        let engine = default_engine();
        let slots: Box<[Slot]> = (0..n).map(|_| Slot::new(cap)).collect();
        for slot in slots.iter() {
            slot.hdr.mode.store(engine.mode(), Ordering::Release);
        }
        FastCache {
            engine: AtomicU8::new(engine.mode() as u8),
            enabled: AtomicBool::new(true),
            slots,
        }
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
        self.enabled.load(Ordering::Relaxed)
    }

    /// Pops an object address from the current CPU's slot.
    // Inline into the allocators' hit paths: an outlined call here costs
    // a measurable share of the per-op budget (~10 % of a hit), and the
    // generic slab engine is instantiated in whichever downstream crate
    // names the cache type, where a plain `#[inline]` hint is not enough.
    #[inline(always)]
    pub fn pop(&self) -> FastPop {
        if !self.enabled.load(Ordering::Relaxed) {
            self.disabled_miss();
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
        if !self.enabled.load(Ordering::Relaxed) {
            self.disabled_miss();
            return FastPush::Bypass;
        }
        match self.engine() {
            Engine::Rseq => self.push_rseq(obj),
            Engine::Locks => self.push_locks(obj),
        }
    }

    /// Counts an operation the disabled fast path bounced.
    #[cold]
    fn disabled_miss(&self) {
        self.thread_slot().miss(0);
    }

    /// The lock engine's slot for the calling thread; also where the
    /// misses of a thread with no usable CPU slot are counted.
    #[inline]
    fn thread_slot(&self) -> &Slot {
        &self.slots[tls::lock_slot_index(self.slots.len())]
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
                self.thread_slot().miss(restarts);
                return FastPop::Bypass;
            };
            // SAFETY: slot layout matches the asm contract; `cpu` is the
            // id the critical section re-validates before committing.
            match unsafe { rseq::pop(area, cpu as u32, &slot.hdr) } {
                0 => {
                    slot.miss(restarts);
                    return FastPop::Empty;
                }
                1 => {
                    restarts += 1;
                    if restarts >= RESTART_BUDGET {
                        slot.miss(restarts);
                        return FastPop::Bypass;
                    }
                }
                2 => {
                    slot.miss(restarts);
                    return FastPop::Bypass;
                }
                obj => {
                    slot.restarted(restarts);
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
                self.thread_slot().miss(restarts);
                return FastPush::Bypass;
            };
            // SAFETY: as in `pop_rseq`.
            match unsafe { rseq::push(area, cpu as u32, &slot.hdr, obj) } {
                0 => {
                    slot.restarted(restarts);
                    return FastPush::Pushed;
                }
                1 => {
                    restarts += 1;
                    if restarts >= RESTART_BUDGET {
                        slot.miss(restarts);
                        return FastPush::Bypass;
                    }
                }
                2 => {
                    slot.miss(restarts);
                    return FastPush::Bypass;
                }
                3 => {
                    slot.miss(restarts);
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
        let slot = self.thread_slot();
        let Some(_guard) = slot.lock.try_lock() else {
            slot.miss(0);
            return FastPop::Bypass;
        };
        if slot.hdr.mode.load(Ordering::Relaxed) != MODE_LOCKS {
            slot.miss(0);
            return FastPop::Bypass;
        }
        let word = slot.hdr.commit.load(Ordering::Relaxed);
        let depth = word & DEPTH_MASK;
        if depth == 0 {
            slot.miss(0);
            return FastPop::Empty;
        }
        // SAFETY: mode is LOCKS and the mutex is held — exclusive slot
        // access; index is within `cap` by the push-side bound check.
        let obj = unsafe { *slot.hdr.items.add(depth as usize - 1) };
        slot.hdr.commit.store(word - 1, Ordering::Relaxed);
        FastPop::Hit(obj)
    }

    fn push_locks(&self, obj: usize) -> FastPush {
        let slot = self.thread_slot();
        let Some(_guard) = slot.lock.try_lock() else {
            slot.miss(0);
            return FastPush::Bypass;
        };
        if slot.hdr.mode.load(Ordering::Relaxed) != MODE_LOCKS {
            slot.miss(0);
            return FastPush::Bypass;
        }
        let word = slot.hdr.commit.load(Ordering::Relaxed);
        let depth = word & DEPTH_MASK;
        if depth >= slot.hdr.cap {
            slot.miss(0);
            return FastPush::Full;
        }
        // SAFETY: as in `pop_locks`.
        unsafe { *slot.hdr.items.add(depth as usize) = obj };
        slot.hdr.commit.store(word + PUSH, Ordering::Relaxed);
        FastPush::Pushed
    }

    /// Takes every slot lock, in slot order.
    fn lock_slots(&self) -> Vec<MutexGuard<'_, u64>> {
        self.slots.iter().map(|s| s.lock.lock()).collect()
    }

    /// Parks every slot in `MODE_OFF` (all slot locks held by the
    /// caller), fencing out any in-flight rseq critical section.
    fn park_slots(&self) {
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
    }

    /// Reopens every slot on the current engine (all slot locks held by
    /// the caller).
    fn unpark_slots(&self) {
        let mode = self.engine().mode();
        for slot in self.slots.iter() {
            slot.hdr.mode.store(mode, Ordering::SeqCst);
        }
    }

    /// Takes the objects parked in every slot, adding each slot's take
    /// to its drained count. Caller holds `guards` from
    /// [`lock_slots`](Self::lock_slots) with the slots parked by
    /// [`park_slots`](Self::park_slots).
    fn take_slots(&self, guards: &mut [MutexGuard<'_, u64>]) -> Vec<usize> {
        let mut out = Vec::new();
        for (slot, drained) in self.slots.iter().zip(guards.iter_mut()) {
            let word = slot.hdr.commit.load(Ordering::Relaxed);
            let depth = word & DEPTH_MASK;
            for i in 0..depth as usize {
                // SAFETY: slot parked and lock held — no concurrent writer.
                out.push(unsafe { *slot.hdr.items.add(i) });
            }
            slot.hdr.commit.store(word - depth, Ordering::Relaxed);
            **drained += depth;
        }
        out
    }

    /// Removes and returns every parked object, leaving the cache
    /// enabled. Safe against concurrent hit-path traffic: concurrent
    /// operations bounce to the slow path while the drain holds the
    /// slots parked.
    pub fn drain(&self) -> Vec<usize> {
        let mut guards = self.lock_slots();
        self.park_slots();
        let out = self.take_slots(&mut guards);
        if self.enabled.load(Ordering::Relaxed) {
            self.unpark_slots();
        }
        out
    }

    /// Enables or disables the fast path. Disabling drains and returns
    /// every parked object (the caller must hand them back to its slow
    /// path, keeping the switchover leak-free); enabling returns an
    /// empty vec.
    pub fn set_enabled(&self, on: bool) -> Vec<usize> {
        let mut guards = self.lock_slots();
        self.enabled.store(on, Ordering::Relaxed);
        self.park_slots();
        if on {
            self.unpark_slots();
            Vec::new()
        } else {
            self.take_slots(&mut guards)
        }
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
        let _guards = self.lock_slots();
        self.engine.store(engine.mode() as u8, Ordering::Relaxed);
        self.park_slots();
        if self.enabled.load(Ordering::Relaxed) {
            self.unpark_slots();
        }
        engine
    }

    /// Approximate number of parked objects (racy snapshot over slots).
    pub fn cached(&self) -> usize {
        self.slots
            .iter()
            .map(|s| (s.hdr.commit.load(Ordering::Relaxed) & DEPTH_MASK) as usize)
            .sum()
    }

    /// Totals across every thread that ever used the cache, read slot
    /// by slot under each slot lock: a slot's pushes are its
    /// `free_hits`, and what was pushed and is neither parked nor
    /// drained was popped, which is its `alloc_hits`. Counts are exact
    /// for any reader ordered after the operations (a joined thread, a
    /// quiesced testbed), with no thread-exit step in between.
    pub fn snapshot(&self) -> FastPathSnapshot {
        let mut snap = FastPathSnapshot::default();
        for slot in self.slots.iter() {
            let drained = *slot.lock.lock();
            let word = slot.hdr.commit.load(Ordering::Relaxed);
            let pushes = word >> PUSHES_SHIFT;
            // Modulo the push count's 48 bits, so a wrapped count stays
            // a count of pops.
            let pops = pushes.wrapping_sub(word & DEPTH_MASK).wrapping_sub(drained)
                & (u64::MAX >> PUSHES_SHIFT);
            snap.free_hits += pushes;
            snap.alloc_hits += pops;
            snap.restarts += slot.restarts.load(Ordering::Relaxed);
            snap.fallbacks += slot.fallbacks.load(Ordering::Relaxed);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    // Object addresses for tests: anything > 2 works; use page-ish
    // values so mistakes are obvious.
    fn addr(i: usize) -> usize {
        0x10_000 + i * 8
    }

    #[test]
    fn fastpath_override_parses_strictly() {
        let locks = FastPathOverride::Locks;
        assert_eq!(FastPathOverride::parse_env(None), Ok(None));
        assert_eq!(
            FastPathOverride::parse_env(Some("")),
            Ok(None),
            "CI default leg"
        );
        assert_eq!(
            FastPathOverride::parse_env(Some(locks.label())),
            Ok(Some(locks))
        );
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
    #[should_panic(expected = "outside 1..=0xFFFF")]
    fn zero_capacity_is_refused() {
        FastCache::new(0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=0xFFFF")]
    fn capacity_past_the_depth_field_is_refused() {
        FastCache::new(0x1_0000);
    }

    /// What one thread did to a cache, tallied from the operations'
    /// own results, for comparison against the cache's snapshot.
    #[derive(Default)]
    struct Tally {
        pushed: u64,
        popped: u64,
        missed: u64,
        drained: u64,
        next: usize,
    }

    impl Tally {
        fn push(&mut self, c: &FastCache, n: usize) {
            for _ in 0..n {
                self.next += 1;
                // Never more than four parked per test, well under the
                // capacity of any one slot: every push lands.
                assert_eq!(c.push(addr(self.next)), FastPush::Pushed);
                self.pushed += 1;
            }
        }

        /// A pop after a migration may find the new CPU's slot empty;
        /// the object it missed stays parked and the next drain takes it.
        fn pop(&mut self, c: &FastCache, n: usize) {
            for _ in 0..n {
                match c.pop() {
                    FastPop::Hit(_) => self.popped += 1,
                    _ => self.missed += 1,
                }
            }
        }

        fn take(&mut self, taken: Vec<usize>) {
            assert_eq!(
                taken.len() as u64,
                self.pushed - self.popped - self.drained,
                "a drain took what was not parked"
            );
            self.drained += taken.len() as u64;
        }

        fn check(&self, c: &FastCache, at: &str) {
            let s = c.snapshot();
            assert_eq!(
                (s.alloc_hits, s.free_hits),
                (self.popped, self.pushed),
                "{}: {at}: {s:?}",
                c.engine()
            );
        }
    }

    /// The hit counts derive from the slot words and the drained
    /// counts; they must stay exact across every operation that moves
    /// objects out of a slot behind the hit path's back, on both
    /// engines.
    #[test]
    fn hit_counts_are_exact_across_drains_engine_switches_and_toggles() {
        for start in [Engine::Locks, Engine::Rseq] {
            let c = FastCache::new(8);
            c.set_engine(start);
            let mut t = Tally::default();
            for _ in 0..5 {
                t.push(&c, 1);
                t.pop(&c, 1);
            }
            t.check(&c, "pairs");
            t.push(&c, 3);
            t.take(c.drain());
            t.check(&c, "drain");
            t.push(&c, 2);
            c.set_engine(Engine::Locks);
            t.check(&c, "switch to locks");
            t.take(c.drain());
            t.push(&c, 1);
            t.pop(&c, 1);
            c.set_engine(Engine::Rseq);
            t.push(&c, 1);
            t.pop(&c, 1);
            t.check(&c, "switch back");
            t.push(&c, 4);
            t.take(c.set_enabled(false));
            assert_eq!(c.pop(), FastPop::Bypass);
            assert_eq!(c.push(addr(0x1000)), FastPush::Bypass);
            t.check(&c, "disable");
            assert!(c.set_enabled(true).is_empty());
            t.push(&c, 1);
            t.pop(&c, 1);
            t.check(&c, "enable");
            t.take(c.drain());
            t.check(&c, "final drain");
            assert!(t.popped > 0, "no pop ever hit");
        }
    }

    /// No count waits on a thread's exit: a plain spawned thread's hits
    /// are in the snapshot as soon as it is joined, and every pop it
    /// missed is a fallback.
    #[test]
    fn a_joined_thread_reads_exact_counts() {
        let c = Arc::new(FastCache::new(8));
        let worker = Arc::clone(&c);
        let t = std::thread::spawn(move || {
            let mut t = Tally::default();
            for _ in 0..100 {
                t.push(&worker, 1);
                t.pop(&worker, 1);
            }
            t.pop(&worker, 1);
            t
        })
        .join()
        .unwrap();
        let s = c.snapshot();
        assert_eq!(
            (s.alloc_hits, s.free_hits, s.fallbacks),
            (t.popped, t.pushed, t.missed),
            "{s:?}"
        );
        assert!(
            t.missed >= 1 && t.popped > 0,
            "the last pop finds its slot empty"
        );
        assert_eq!(c.drain().len() as u64, t.pushed - t.popped);
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
