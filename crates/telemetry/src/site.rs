//! Per-call-site attribution of deferred frees.
//!
//! The allocator's `free_deferred` captures its caller's
//! [`std::panic::Location`] (via `#[track_caller]`), interns it into a
//! compact [`SiteId`], and stamps the object's address with
//! `{site, bytes, defer time}`. The stamp is the only per-object record of
//! when the object was deferred: [`note_deferred`] returns its time so the
//! cache's trace record reuses it. When the object becomes reusable again —
//! by a latent-cache merge, a latent-slab sweep or a domain delivery —
//! [`note_reclaimed`] removes the stamp, credits the site's reclaimed
//! counters and returns the object's age, which the owning cache records
//! into its `defer_delay_ns` histogram. The difference
//! `deferred − reclaimed` is the site's *outstanding* garbage, the quantity
//! the doctor ranks sites by.
//!
//! Cost discipline mirrors the rest of the crate:
//!
//! * everything is gated on [`enabled`](crate::enabled) — one `Relaxed`
//!   load and a branch when tracing is off;
//! * interning hits a lock-free direct-mapped pointer cache after the
//!   first registration of a site (the slow path takes a mutex once);
//! * per-site counters are `Relaxed` per-lane stripes (threads spread over
//!   [`LANES`] cache-padded lanes), summed only at snapshot time;
//! * [`note_reclaimed`] with no stamps outstanding anywhere is a single
//!   `Relaxed` load, so reclaim paths call it unconditionally and the
//!   stamp table always drains even if tracing is switched off mid-run.
//!
//! The registry, counters and stamp table are process-global (like the
//! [`enabled`](crate::enabled) flag itself): attribution spans every
//! domain and cache in the process, and tests that assert exact balances
//! run in their own binaries against sites they exclusively own.

use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use crossbeam::utils::CachePadded;
use serde::{Deserialize, Serialize};

/// Maximum distinct call sites tracked; later registrations fold into the
/// overflow site (id 0) and are counted in
/// [`SiteReport::dropped_sites`].
pub const MAX_SITES: usize = 256;

/// Counter stripes per site; threads are spread across lanes so concurrent
/// defers from one site don't share a cacheline.
pub const LANES: usize = 8;

/// A compact interned id of one `#[track_caller]` call site.
///
/// Id 0 is the overflow/unknown site; real sites start at 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(u32);

impl SiteId {
    /// The overflow/unknown site.
    pub const UNKNOWN: SiteId = SiteId(0);

    /// The raw interned index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// One counter stripe: `Relaxed` bumps only, summed at snapshot time.
#[derive(Default)]
struct Lane {
    deferred: AtomicU64,
    deferred_bytes: AtomicU64,
    reclaimed: AtomicU64,
    reclaimed_bytes: AtomicU64,
}

/// Canonical site registry: dedups by `(file, line, column)` so duplicate
/// `Location` instances (e.g. across codegen units) intern to one id.
#[derive(Default)]
struct Registry {
    by_loc: HashMap<(&'static str, u32, u32), u32>,
    labels: Vec<String>,
    dropped: u64,
}

/// Direct-mapped pointer→id cache entry; `id` holds `interned + 1` so zero
/// means empty. Publication order (id before key, key `Release`) pairs
/// with the `Acquire` key load in [`intern`].
struct CacheEntry {
    key: AtomicUsize,
    id: AtomicU32,
}

const CACHE_SLOTS: usize = 1024;

struct Globals {
    registry: Mutex<Registry>,
    lanes: Box<[CachePadded<Lane>]>, // MAX_SITES × LANES, site-major
    cache: Box<[CacheEntry]>,
    stamps: Box<[Mutex<HashMap<usize, Stamp>>]>,
    outstanding: AtomicU64,
    lost_stamps: AtomicU64,
}

#[derive(Clone, Copy)]
struct Stamp {
    site: u32,
    bytes: u32,
    t_ns: u64,
}

const STAMP_SHARDS: usize = 64;

fn globals() -> &'static Globals {
    static GLOBALS: OnceLock<Globals> = OnceLock::new();
    GLOBALS.get_or_init(|| {
        let mut registry = Registry::default();
        registry.labels.push("<unknown>".to_string());
        Globals {
            registry: Mutex::new(registry),
            lanes: (0..MAX_SITES * LANES)
                .map(|_| CachePadded::new(Lane::default()))
                .collect(),
            cache: (0..CACHE_SLOTS)
                .map(|_| CacheEntry {
                    key: AtomicUsize::new(0),
                    id: AtomicU32::new(0),
                })
                .collect(),
            stamps: (0..STAMP_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            outstanding: AtomicU64::new(0),
            lost_stamps: AtomicU64::new(0),
        }
    })
}

/// This thread's counter stripe, assigned round-robin on first use.
fn lane_index() -> usize {
    thread_local! {
        static LANE: usize = {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed) % LANES
        };
    }
    LANE.with(|l| *l)
}

fn cache_slot(key: usize) -> usize {
    // Fibonacci hash of the pointer (low bits are alignment zeros).
    (key >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - 10)
}

/// Interns a call-site location into a compact [`SiteId`].
///
/// Fast path after first registration: one hashed `Acquire` load against
/// the pointer cache. Distinct `Location` instances for the same
/// `file:line:column` resolve to the same id through the canonical
/// registry.
#[inline]
pub fn intern(loc: &'static Location<'static>) -> SiteId {
    let g = globals();
    let key = loc as *const Location<'static> as usize;
    let entry = &g.cache[cache_slot(key)];
    if entry.key.load(Ordering::Acquire) == key {
        return SiteId(entry.id.load(Ordering::Relaxed).saturating_sub(1));
    }
    intern_slow(g, loc, key, entry)
}

#[cold]
fn intern_slow(
    g: &'static Globals,
    loc: &'static Location<'static>,
    key: usize,
    entry: &CacheEntry,
) -> SiteId {
    let mut reg = g.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let file: &'static str = loc.file();
    let id = match reg.by_loc.get(&(file, loc.line(), loc.column())) {
        Some(&id) => id,
        None if reg.labels.len() < MAX_SITES => {
            let id = reg.labels.len() as u32;
            reg.by_loc.insert((file, loc.line(), loc.column()), id);
            reg.labels.push(format!("{}:{}:{}", loc.file(), loc.line(), loc.column()));
            id
        }
        None => {
            reg.dropped += 1;
            0
        }
    };
    drop(reg);
    if id != 0 {
        // Publish id before key so a racing fast-path reader that sees the
        // key always reads a valid id. Losing the slot to a colliding site
        // is fine — that site just keeps taking the slow path.
        entry.id.store(id + 1, Ordering::Relaxed);
        entry.key.store(key, Ordering::Release);
    }
    SiteId(id)
}

/// Records a deferred free: credits the site's deferred counters and
/// stamps `addr` with the site and the defer time so the matching
/// [`note_reclaimed`] can attribute the reclaim. Returns the defer time
/// it stamped, for the caller's trace record.
///
/// Call only when [`enabled`](crate::enabled); the caller already holds
/// the object exclusively so a duplicate stamp for `addr` means the
/// previous owner leaked (cache torn down without reclaiming) — the old
/// stamp is dropped and counted in [`SiteReport::lost_stamps`].
pub fn note_deferred(addr: usize, site: SiteId, bytes: usize) -> u64 {
    let g = globals();
    let lane = &g.lanes[site.0 as usize * LANES + lane_index()];
    lane.deferred.fetch_add(1, Ordering::Relaxed);
    lane.deferred_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    let t_ns = crate::now_nanos();
    let stamp = Stamp {
        site: site.0,
        bytes: bytes.min(u32::MAX as usize) as u32,
        t_ns,
    };
    let prev = g.stamps[addr % STAMP_SHARDS]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(addr, stamp);
    if prev.is_some() {
        g.lost_stamps.fetch_add(1, Ordering::Relaxed);
    } else {
        g.outstanding.fetch_add(1, Ordering::Relaxed);
    }
    t_ns
}

/// Records that `addr` was reclaimed (became reusable) and returns its
/// age in nanoseconds since [`note_deferred`]. Safe to call
/// unconditionally from every reclaim path: with no stamps outstanding
/// anywhere this is a single `Relaxed` load, and unstamped addresses
/// (deferred while tracing was off) are ignored and return `None`.
#[inline]
pub fn note_reclaimed(addr: usize) -> Option<u64> {
    let g = globals();
    if g.outstanding.load(Ordering::Relaxed) == 0 {
        return None;
    }
    note_reclaimed_slow(g, addr)
}

#[cold]
fn note_reclaimed_slow(g: &'static Globals, addr: usize) -> Option<u64> {
    let stamp = g.stamps[addr % STAMP_SHARDS]
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .remove(&addr)?;
    g.outstanding.fetch_sub(1, Ordering::Relaxed);
    let lane = &g.lanes[stamp.site as usize * LANES + lane_index()];
    lane.reclaimed.fetch_add(1, Ordering::Relaxed);
    lane.reclaimed_bytes.fetch_add(stamp.bytes as u64, Ordering::Relaxed);
    Some(crate::now_nanos().saturating_sub(stamp.t_ns))
}

/// Aggregated counters of one call site.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteStat {
    /// Interned site index ([`SiteId::index`]).
    pub site: u32,
    /// `file:line:column` of the call site (`<unknown>` for overflow).
    pub label: String,
    /// Objects deferred from this site.
    pub deferred: u64,
    /// Objects from this site reclaimed into a reusable state.
    pub reclaimed: u64,
    /// `deferred − reclaimed`: objects still held as garbage.
    pub outstanding: u64,
    /// Bytes deferred from this site.
    pub deferred_bytes: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Bytes still outstanding.
    pub outstanding_bytes: u64,
}

/// Snapshot of the whole attribution subsystem, embedded in the unified
/// telemetry snapshot and rendered by the doctor.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SiteReport {
    /// Per-site counters, every site with any recorded activity, sorted
    /// by outstanding bytes descending.
    pub sites: Vec<SiteStat>,
    /// Stamped objects currently outstanding across all sites.
    pub outstanding_total: u64,
    /// Age in nanoseconds of the oldest outstanding stamped object
    /// (0 when none are outstanding).
    pub oldest_outstanding_ns: u64,
    /// Site registrations dropped because [`MAX_SITES`] was exceeded.
    pub dropped_sites: u64,
    /// Stamps overwritten by address reuse (owner torn down without
    /// reclaiming — see [`note_deferred`]).
    pub lost_stamps: u64,
}

impl SiteReport {
    /// Folds another report into this one: sites merge by label (counters
    /// add), gauges take the maximum. Two
    /// captures of the *same* process should not be merged — that would
    /// double-count; this is for folding reports from separate runs.
    pub fn merge(&mut self, other: &SiteReport) {
        for site in &other.sites {
            match self.sites.iter_mut().find(|s| s.label == site.label) {
                Some(mine) => {
                    mine.deferred += site.deferred;
                    mine.reclaimed += site.reclaimed;
                    mine.outstanding += site.outstanding;
                    mine.deferred_bytes += site.deferred_bytes;
                    mine.reclaimed_bytes += site.reclaimed_bytes;
                    mine.outstanding_bytes += site.outstanding_bytes;
                }
                None => self.sites.push(site.clone()),
            }
        }
        self.sites.sort_by(|a, b| {
            b.outstanding_bytes
                .cmp(&a.outstanding_bytes)
                .then(b.outstanding.cmp(&a.outstanding))
                .then(a.site.cmp(&b.site))
        });
        self.outstanding_total += other.outstanding_total;
        self.oldest_outstanding_ns = self.oldest_outstanding_ns.max(other.oldest_outstanding_ns);
        self.dropped_sites += other.dropped_sites;
        self.lost_stamps += other.lost_stamps;
    }
}

/// Captures a point-in-time [`SiteReport`].
pub fn report() -> SiteReport {
    let g = globals();
    let (labels, dropped) = {
        let reg = g.registry.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        (reg.labels.clone(), reg.dropped)
    };
    let mut sites = Vec::new();
    for (id, label) in labels.iter().enumerate() {
        let mut s = SiteStat {
            site: id as u32,
            label: label.clone(),
            ..Default::default()
        };
        for lane in 0..LANES {
            let l = &g.lanes[id * LANES + lane];
            s.deferred += l.deferred.load(Ordering::Relaxed);
            s.deferred_bytes += l.deferred_bytes.load(Ordering::Relaxed);
            s.reclaimed += l.reclaimed.load(Ordering::Relaxed);
            s.reclaimed_bytes += l.reclaimed_bytes.load(Ordering::Relaxed);
        }
        s.outstanding = s.deferred.saturating_sub(s.reclaimed);
        s.outstanding_bytes = s.deferred_bytes.saturating_sub(s.reclaimed_bytes);
        if s.deferred != 0 || s.reclaimed != 0 {
            sites.push(s);
        }
    }
    sites.sort_by(|a, b| {
        b.outstanding_bytes
            .cmp(&a.outstanding_bytes)
            .then(b.outstanding.cmp(&a.outstanding))
            .then(a.site.cmp(&b.site))
    });
    let now = crate::now_nanos();
    let mut oldest = 0u64;
    for shard in g.stamps.iter() {
        let shard = shard.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        for stamp in shard.values() {
            oldest = oldest.max(now.saturating_sub(stamp.t_ns));
        }
    }
    SiteReport {
        sites,
        outstanding_total: g.outstanding.load(Ordering::Relaxed),
        oldest_outstanding_ns: oldest,
        dropped_sites: dropped,
        lost_stamps: g.lost_stamps.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[track_caller]
    fn here() -> &'static Location<'static> {
        Location::caller()
    }

    #[test]
    fn interning_dedups_and_is_stable() {
        let loc = here();
        let a = intern(loc);
        let b = intern(loc);
        assert_eq!(a, b);
        assert_ne!(a, SiteId::UNKNOWN);
        let other = intern(here());
        assert_ne!(a, other, "distinct lines intern to distinct ids");
    }

    #[test]
    fn concurrent_first_registration_agrees() {
        // All threads intern the *same* location concurrently; every
        // thread must observe the same id (first registration races
        // through the slow path, later ones may hit the pointer cache).
        let loc = here();
        let ids: Vec<SiteId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(move || (0..100).map(|_| intern(loc)).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let first = ids[0];
        assert!(ids.iter().all(|&id| id == first));
    }

    #[test]
    fn defer_reclaim_balances_and_ages() {
        let _guard = crate::flag_guard();
        crate::set_enabled(true);
        let site = intern(here());
        let base = 0xdead_0000usize;
        let mut stamped = Vec::new();
        for i in 0..10 {
            stamped.push(note_deferred(base + i * 64, site, 64));
        }
        assert!(stamped.iter().all(|&t| t > 0), "the stamp's time is returned");
        let mid = report();
        let stat = mid.sites.iter().find(|s| s.site == site.index()).unwrap();
        assert_eq!(stat.deferred, 10);
        assert_eq!(stat.outstanding, 10);
        assert_eq!(stat.outstanding_bytes, 640);
        assert!(mid.outstanding_total >= 10);
        assert!(mid.oldest_outstanding_ns > 0);

        let ages: Vec<Option<u64>> = (0..10).map(|i| note_reclaimed(base + i * 64)).collect();
        assert!(ages.iter().all(Option::is_some), "every stamp returns its age");
        assert_eq!(note_reclaimed(base), None, "a stamp is credited once");
        let done = report();
        let stat = done.sites.iter().find(|s| s.site == site.index()).unwrap();
        assert_eq!(stat.reclaimed, 10);
        assert_eq!(stat.outstanding, 0);
        assert_eq!(stat.outstanding_bytes, 0);
    }

    #[test]
    fn unstamped_reclaims_are_ignored() {
        let _guard = crate::flag_guard();
        crate::set_enabled(true);
        let before = report();
        assert_eq!(note_reclaimed(0xfeed_beef), None);
        let after = report();
        assert_eq!(before.outstanding_total, after.outstanding_total);
    }
}
