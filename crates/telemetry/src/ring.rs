//! Per-lane, cache-padded trace-event ring buffers.
//!
//! The write side mirrors the workspace's sharded-statistics discipline:
//! each lane belongs to one writer at a time (the holder of the per-CPU
//! slot lock, or the node lock for lane 0), so every store — the head
//! cursor, the kind counters, the record words — is a plain `Relaxed`
//! load/store with no read-modify-write and no shared cache lines between
//! lanes. Overflow is drop-oldest: the ring wraps and the overwritten
//! records are accounted by a drop counter derived from the head.
//!
//! Because telemetry must be robust to misuse, the format does not *trust*
//! the single-writer contract: every record carries its claim sequence and
//! a checksum over all of its words. A reader (or a racing writer that
//! violated the contract) can therefore never surface a torn record — the
//! snapshot recomputes each checksum and discards mismatches, counting
//! them separately.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crossbeam::utils::CachePadded;
use serde::{Deserialize, Serialize};

use crate::event::{EventKind, EventSnapshot, KIND_COUNT};

/// Words per on-ring record: seq, timestamp, kind/lane/src, a, b,
/// checksum.
const WORDS: usize = 6;

struct Slot([AtomicU64; WORDS]);

struct Lane {
    /// Next sequence number for this lane; plain load/store, single
    /// writer.
    head: AtomicU64,
    /// Total events of each kind recorded on this lane; unlike the ring
    /// slots these are never overwritten, so kind totals survive
    /// overflow.
    counts: [AtomicU64; KIND_COUNT],
    slots: Box<[Slot]>,
}

impl Lane {
    fn new(capacity: usize) -> Self {
        Self {
            head: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: (0..capacity)
                .map(|_| Slot(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }
}

/// 64-bit mix over a record's payload words; a torn read (words from two
/// different writes) fails to reproduce it with overwhelming probability.
fn checksum(words: &[u64; WORDS - 1]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
    }
    h
}

/// A fixed-capacity, multi-lane trace ring (see the module docs for the
/// write discipline).
#[derive(Debug)]
pub struct EventRing {
    lanes: Box<[CachePadded<Lane>]>,
    mask: u64,
    next_lane_hint: AtomicUsize,
}

impl std::fmt::Debug for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lane")
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("capacity", &self.slots.len())
            .finish()
    }
}

impl EventRing {
    /// A ring with `lanes` independent lanes of `capacity_per_lane`
    /// records each (rounded up to a power of two, minimum 8).
    pub fn new(lanes: usize, capacity_per_lane: usize) -> Self {
        let capacity = capacity_per_lane.max(8).next_power_of_two();
        Self {
            lanes: (0..lanes.max(1)).map(|_| CachePadded::new(Lane::new(capacity))).collect(),
            mask: capacity as u64 - 1,
            next_lane_hint: AtomicUsize::new(0),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Records one event on `lane` (wrapped into range). No-op while
    /// tracing is [disabled](crate::enabled).
    #[inline]
    pub fn record(&self, lane: usize, kind: EventKind, src: u32, a: u64, b: u64) {
        if !crate::enabled() {
            return;
        }
        self.record_at(lane, crate::now_nanos(), kind, src, a, b);
    }

    /// Like [`record`](Self::record) but stamps the caller-supplied
    /// timestamp, for paths that already read the clock (the clock read
    /// dominates a record's cost). Still a no-op while tracing is
    /// disabled.
    #[inline]
    pub fn record_at(&self, lane: usize, t_ns: u64, kind: EventKind, src: u32, a: u64, b: u64) {
        if !crate::enabled() {
            return;
        }
        let lane_idx = lane % self.lanes.len();
        let lane = &*self.lanes[lane_idx];
        // The kind totals and the head claim must be RMWs, not
        // load-then-store: `record_thread` maps arbitrary threads onto a
        // bounded lane set, so concurrent writers on one lane are a
        // tolerated (checksum-guarded) mode — a plain load+store pair
        // here loses increments under exactly that collision, which made
        // the overflow-proof kind totals quietly inexact.
        lane.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
        let claim = lane.head.fetch_add(1, Ordering::Relaxed);
        let words = [
            claim + 1, // +1 so an untouched (all-zero) slot is recognizable
            t_ns,
            u64::from(kind as u16) | (lane_idx as u64 & 0xFFFF) << 16 | u64::from(src) << 32,
            a,
            b,
        ];
        let slot = &lane.slots[(claim & self.mask) as usize];
        for (cell, &word) in slot.0.iter().zip(&words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.0[WORDS - 1].store(checksum(&words), Ordering::Relaxed);
    }

    /// Records on a lane derived from the calling thread, for components
    /// (like the RCU domain) whose writers are not bound to a CPU slot.
    /// Distinct threads spread across lanes; collisions are tolerated
    /// because torn records are checksum-dropped.
    #[inline]
    pub fn record_thread(&self, kind: EventKind, src: u32, a: u64, b: u64) {
        self.record(self.thread_lane(), kind, src, a, b);
    }

    /// The lane [`record_thread`](Self::record_thread) would use on this
    /// thread.
    pub fn thread_lane(&self) -> usize {
        use std::cell::Cell;
        thread_local! {
            static HINT: Cell<usize> = const { Cell::new(usize::MAX) };
        }
        let hint = HINT.with(|h| {
            if h.get() == usize::MAX {
                h.set(self.next_lane_hint.fetch_add(1, Ordering::Relaxed));
            }
            h.get()
        });
        hint % self.lanes.len()
    }

    /// Decodes every live, checksum-valid record into timestamp order.
    pub fn snapshot(&self) -> RingSnapshot {
        let capacity = self.mask + 1;
        let mut events = Vec::new();
        let mut recorded = 0u64;
        let mut dropped = 0u64;
        let mut torn = 0u64;
        let mut kind_totals = [0u64; KIND_COUNT];
        for lane in self.lanes.iter() {
            let head = lane.head.load(Ordering::Relaxed);
            recorded += head;
            dropped += head.saturating_sub(capacity);
            for (kind, total) in lane.counts.iter().zip(&mut kind_totals) {
                *total += kind.load(Ordering::Relaxed);
            }
            for slot in lane.slots.iter() {
                let mut words = [0u64; WORDS];
                for (word, cell) in words.iter_mut().zip(&slot.0) {
                    *word = cell.load(Ordering::Relaxed);
                }
                if words[0] == 0 {
                    continue; // never written
                }
                let payload: [u64; WORDS - 1] = words[..WORDS - 1].try_into().expect("size");
                if checksum(&payload) != words[WORDS - 1] {
                    torn += 1;
                    continue;
                }
                let Some(kind) = EventKind::from_u16(words[2] as u16) else {
                    torn += 1;
                    continue;
                };
                events.push(EventSnapshot {
                    seq: words[0] - 1,
                    t_ns: words[1],
                    kind: kind as u16,
                    lane: (words[2] >> 16) as u16,
                    src: (words[2] >> 32) as u32,
                    a: words[3],
                    b: words[4],
                });
            }
        }
        events.sort_by_key(|e| e.t_ns);
        RingSnapshot {
            events,
            recorded,
            dropped,
            torn,
            kind_counts: EventKind::ALL
                .iter()
                .zip(kind_totals)
                .map(|(kind, total)| (kind.name().to_owned(), total))
                .collect(),
        }
    }
}

/// A decoded, validated point-in-time view of an [`EventRing`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RingSnapshot {
    /// Valid records, oldest timestamp first.
    pub events: Vec<EventSnapshot>,
    /// Total records ever written (sum of lane heads).
    pub recorded: u64,
    /// Records overwritten by drop-oldest wrap-around.
    pub dropped: u64,
    /// Slots that failed checksum or kind validation.
    pub torn: u64,
    /// Overflow-proof per-kind totals, one entry per [`EventKind`].
    pub kind_counts: Vec<(String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_in_order() {
        let _guard = crate::flag_guard();
        let ring = EventRing::new(2, 16);
        ring.record(0, EventKind::GpBegin, 9, 1, 2);
        ring.record(1, EventKind::LatentMerge, 9, 3, 4);
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.events.len(), 2);
        assert!(snap.events[0].t_ns <= snap.events[1].t_ns);
        let merge = snap
            .events
            .iter()
            .find(|e| e.event_kind() == EventKind::LatentMerge)
            .unwrap();
        assert_eq!((merge.lane, merge.src, merge.a, merge.b), (1, 9, 3, 4));
        assert_eq!(
            snap.kind_counts
                .iter()
                .find(|(k, _)| k == "latent_merge")
                .unwrap()
                .1,
            1
        );
    }

    #[test]
    fn overflow_drops_oldest_and_counts_drops() {
        let _guard = crate::flag_guard();
        let ring = EventRing::new(1, 8);
        for i in 0..20 {
            ring.record(0, EventKind::LatentStamp, 0, i, 0);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.dropped, 12);
        assert_eq!(snap.events.len(), 8);
        // The surviving records are exactly the 12..20 tail.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>());
        // Kind totals are overflow-proof.
        assert_eq!(snap.kind_counts.iter().find(|(k, _)| k == "latent_stamp").unwrap().1, 20);
    }

    #[test]
    fn lane_indices_wrap() {
        let _guard = crate::flag_guard();
        let ring = EventRing::new(2, 8);
        ring.record(7, EventKind::OomDefer, 0, 0, 0); // lane 7 % 2 == 1
        let snap = ring.snapshot();
        assert_eq!(snap.events[0].lane, 1);
    }

    #[test]
    fn disabled_tracing_writes_nothing() {
        let _guard = crate::flag_guard();
        let ring = EventRing::new(1, 8);
        crate::set_enabled(false);
        ring.record(0, EventKind::GpBegin, 0, 0, 0);
        crate::set_enabled(true);
        assert_eq!(ring.snapshot().recorded, 0);
    }

    #[test]
    fn thread_lanes_spread_across_threads() {
        let ring = std::sync::Arc::new(EventRing::new(4, 8));
        let lanes: Vec<usize> = (0..4)
            .map(|_| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || ring.thread_lane())
            })
            .map(|h| h.join().unwrap())
            .collect();
        for lane in lanes {
            assert!(lane < 4);
        }
    }

    /// Satellite stress test: hammer one lane from many threads —
    /// deliberately violating the single-writer contract — and verify the
    /// snapshot never surfaces a corrupt record. Each writer maintains
    /// `b == a * PHI` inside every record; a torn mix of two records
    /// breaks the checksum and must be dropped, never decoded.
    #[test]
    fn concurrent_writers_never_surface_corrupt_records() {
        let _guard = crate::flag_guard();
        const PHI: u64 = 0x9E37_79B9_7F4A_7C15;
        let ring = std::sync::Arc::new(EventRing::new(1, 64));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let a = (t as u64) << 32 | i;
                        ring.record(0, EventKind::LatentStamp, t, a, a.wrapping_mul(PHI));
                        i += 1;
                    }
                })
            })
            .collect();
        // Wait (bounded) for a writer to run: on a busy box the snapshots
        // below can otherwise all finish before one is scheduled.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while ring.snapshot().recorded == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        // Snapshot concurrently with the writers: reads race with stores,
        // so torn slots are expected — but every *surfaced* record must be
        // internally consistent.
        let mut total_checked = 0usize;
        for _ in 0..200 {
            let snap = ring.snapshot();
            for event in &snap.events {
                assert_eq!(event.event_kind(), EventKind::LatentStamp);
                assert_eq!(event.b, event.a.wrapping_mul(PHI), "corrupt record surfaced");
                assert_eq!(event.lane, 0);
            }
            total_checked += snap.events.len();
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        assert!(total_checked > 0, "stress test observed no records");
    }

    /// With the contract honored (one thread per lane) nothing tears and
    /// nothing is lost short of capacity.
    #[test]
    fn per_lane_writers_lose_nothing() {
        let _guard = crate::flag_guard();
        let ring = std::sync::Arc::new(EventRing::new(4, 256));
        let handles: Vec<_> = (0..4)
            .map(|lane| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        ring.record(lane, EventKind::DeferredFree, lane as u32, i, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, 400);
        assert_eq!(snap.torn, 0);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 400);
    }

    /// Regression: the per-kind totals and the head claim are RMW
    /// increments. Hammering one lane from many threads (the tolerated
    /// `record_thread` collision mode) must account *every* record
    /// exactly — the old load-then-store pair lost increments under
    /// contention, so `recorded` and the kind totals drifted below the
    /// true event count.
    #[test]
    fn colliding_writers_keep_counts_exact() {
        let _guard = crate::flag_guard();
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        let ring = std::sync::Arc::new(EventRing::new(1, 8));
        let start = std::sync::Arc::new(std::sync::Barrier::new(WRITERS));
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                let ring = std::sync::Arc::clone(&ring);
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..PER_WRITER {
                        // Alternate kinds so per-kind totals are checked
                        // under contention too, not just the head.
                        let kind = if i % 2 == 0 {
                            EventKind::GpBegin
                        } else {
                            EventKind::DeferredFree
                        };
                        ring.record(0, kind, t as u32, i, 0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = WRITERS as u64 * PER_WRITER;
        let snap = ring.snapshot();
        assert_eq!(snap.recorded, total, "head claims lost under contention");
        let kind_total = |name: &str| {
            snap.kind_counts.iter().find(|(k, _)| k == name).unwrap().1
        };
        assert_eq!(kind_total("gp_begin"), total / 2);
        assert_eq!(kind_total("deferred_free"), total / 2);
    }
}
