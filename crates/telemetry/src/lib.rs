//! Low-overhead observability primitives for the Prudence reproduction.
//!
//! The paper's argument is about *time-domain* behaviour — grace-period
//! latency, latent-cache residency, defer→reuse delay — which monotonic
//! counters summed at quiescence cannot show. This crate provides the
//! primitives the rest of the workspace wires through its existing
//! single-writer statistics discipline:
//!
//! * [`EventRing`] — per-lane, cache-padded ring buffers of fixed-size
//!   binary trace records with drop-oldest overflow and per-record
//!   sequence/checksum validation;
//! * [`LogHistogram`] — power-of-two-bucketed latency histograms with
//!   mergeable serde [`HistogramSnapshot`]s;
//! * [`counter_table!`] — one declaration per counter schema, from which
//!   the live block, the snapshot, `merge`/`delta` and the exported series
//!   are generated (see [`table`]);
//! * [`enabled`]/[`set_enabled`] — a global tracing gate whose disabled
//!   fast path is a single `Relaxed` load plus branch (and a constant
//!   `false` when the `trace` feature is compiled out).
//!
//! The crate is a dependency *leaf*: every layer (`pbs-rcu`, the
//! slab engine and both policies in `pbs-alloc-api`) emits into it, and the
//! aggregation/exposition types build on top of it in `pbs-alloc-api` and
//! `pbs-workloads`.

#![warn(missing_docs)]

mod event;
mod hist;
mod ring;
mod shard;
pub mod site;
pub mod table;

pub use event::{EventKind, EventSnapshot, KIND_COUNT};
pub use hist::{
    bucket_index, bucket_upper_bound, HistogramSnapshot, LogHistogram, Percentiles, BUCKETS,
};
pub use ring::{EventRing, RingSnapshot};
pub use shard::{ShardGauges, ShardRow, ShardSet};

use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize};

#[cfg(feature = "trace")]
static TRACE_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Whether tracing is currently enabled.
///
/// This is the *entire* disabled-tracing fast path: one `Relaxed` atomic
/// load and a branch. Every record hook in the workspace checks it before
/// doing any other work. With the `trace` cargo feature disabled the
/// function is a constant `false` and the hooks compile out.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "trace")]
    {
        TRACE_ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "trace"))]
    {
        false
    }
}

/// Turns tracing on or off at runtime (no-op without the `trace` feature).
///
/// `Relaxed` is deliberate: hooks racing with the store may record or skip
/// a handful of events around the transition, which is harmless for
/// telemetry and keeps the enabled check off the coherence critical path.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "trace")]
    TRACE_ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
    #[cfg(not(feature = "trace"))]
    let _ = on;
}

/// Serializes tests that toggle or depend on the global [`enabled`] flag,
/// which is process-wide state shared by cargo's parallel test threads.
#[cfg(test)]
pub(crate) fn flag_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

static CLOCK_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first telemetry timestamp taken in this process.
///
/// A monotonic process-relative clock: cheap (`Instant::elapsed`), always
/// increasing, and directly usable as the `ts` field of a chrome://tracing
/// export.
#[inline]
pub fn now_nanos() -> u64 {
    CLOCK_EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A histogram snapshot labelled with the metric it measures, so sets of
/// histograms survive serde round-trips without map support.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Metric name, e.g. `"gp_latency_ns"`.
    pub name: String,
    /// The bucketed data.
    pub hist: HistogramSnapshot,
}

/// Everything one instrumented component (an RCU domain, a slab cache)
/// exposes: its histograms plus a snapshot of its event ring.
///
/// Mergeable, so per-cache telemetry from many caches — or snapshots from
/// repeated runs — can be folded into one report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ComponentTelemetry {
    /// Latency histograms, by metric name.
    pub histograms: Vec<NamedHistogram>,
    /// Decoded, checksum-validated trace events, oldest first.
    pub events: Vec<EventSnapshot>,
    /// Per-event-kind totals (not subject to ring overflow).
    pub event_counts: Vec<(String, u64)>,
    /// Total records ever written to the ring.
    pub events_recorded: u64,
    /// Records lost to drop-oldest overwrite.
    pub events_dropped: u64,
    /// Slots whose checksum failed validation (torn by a racing writer).
    pub events_torn: u64,
}

impl ComponentTelemetry {
    /// Builds a component view from a ring snapshot plus named histograms.
    pub fn new(ring: RingSnapshot, histograms: Vec<NamedHistogram>) -> Self {
        Self {
            histograms,
            events: ring.events,
            event_counts: ring.kind_counts,
            events_recorded: ring.recorded,
            events_dropped: ring.dropped,
            events_torn: ring.torn,
        }
    }

    /// Folds `other` into `self`: histograms merge by name, events
    /// concatenate in timestamp order, counters add.
    pub fn merge(&mut self, other: &ComponentTelemetry) {
        for named in &other.histograms {
            match self.histograms.iter_mut().find(|h| h.name == named.name) {
                Some(mine) => mine.hist.merge(&named.hist),
                None => self.histograms.push(named.clone()),
            }
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| e.t_ns);
        for (kind, count) in &other.event_counts {
            match self.event_counts.iter_mut().find(|(k, _)| k == kind) {
                Some((_, mine)) => *mine += count,
                None => self.event_counts.push((kind.clone(), *count)),
            }
        }
        self.events_recorded += other.events_recorded;
        self.events_dropped += other.events_dropped;
        self.events_torn += other.events_torn;
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    /// Total recorded events of one kind (overflow-proof).
    pub fn count_of(&self, kind: EventKind) -> u64 {
        self.event_counts
            .iter()
            .find(|(k, _)| k == kind.name())
            .map_or(0, |(_, c)| *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn enable_toggle_round_trips() {
        let _guard = flag_guard();
        assert!(enabled(), "trace feature defaults on");
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }

    #[test]
    fn component_merge_folds_histograms_and_counts() {
        let _guard = flag_guard();
        let h = LogHistogram::new();
        h.record(5);
        let mk = || {
            let ring = EventRing::new(1, 8);
            ring.record(0, EventKind::LatentMerge, 7, 1, 2);
            ComponentTelemetry::new(
                ring.snapshot(),
                vec![NamedHistogram {
                    name: "x".into(),
                    hist: h.snapshot(),
                }],
            )
        };
        let mut a = mk();
        let b = mk();
        a.merge(&b);
        assert_eq!(a.events.len(), 2);
        assert_eq!(a.count_of(EventKind::LatentMerge), 2);
        assert_eq!(a.histogram("x").unwrap().count, 2);
        assert_eq!(a.events_recorded, 2);
    }

    #[test]
    fn component_serde_round_trip() {
        let _guard = flag_guard();
        let ring = EventRing::new(2, 8);
        ring.record(1, EventKind::GpComplete, 0, 10, 0);
        let t = ComponentTelemetry::new(ring.snapshot(), Vec::new());
        let json = serde_json::to_string(&t).unwrap();
        let back: ComponentTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back.events, t.events);
        assert_eq!(back.events_recorded, 1);
    }
}
