//! The stall watchdog and blame: who is blocking the grace period, and
//! for how long.
//!
//! The grace-period driver runs one [`Inner::watchdog_scan`] per interval
//! and hands it the time. Detection is entirely advancer-side: readers
//! never read a clock or write a timestamp, so the read fast path is
//! untouched. The watchdog remembers the first scan at which it saw a
//! record pinned at a given state word and measures the stall from that
//! scan. A changed word (unpin, or a re-pin at a newer epoch — i.e. reader
//! progress) ends the episode. A reader that keeps re-pinning at the
//! *same* epoch while the epoch is wedged by something else is
//! indistinguishable from a stalled one and may be warned about; warnings
//! are advisory, so the false positive is benign.
//!
//! When an episode first crosses the threshold the watchdog — which is
//! already holding the registry lock and looking at the offending record —
//! fires exactly one warning and captures a [`BlameReport`]: the record
//! id, the thread's registration-time name, the pinned epoch and pin
//! sequence, the stall duration so far, and any hazard pointers the
//! thread is publishing (the culprit's identity for the robust backends).
//! Later scans only refresh the live report's duration; when the episode
//! ends the warning clears (`active_stalls` decrements, `StallClear`
//! traces) and the report retires to a bounded history.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;

use pbs_telemetry::EventKind;
use serde::{Deserialize, Serialize};

use crate::domain::Inner;
use crate::registry::{ThreadRecord, HP_SLOTS};

/// Retired (cleared) episodes kept for the doctor; oldest are dropped.
const HISTORY_CAP: usize = 16;

/// One attributed stall episode: the culprit and what it was doing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlameReport {
    /// Process-unique reader-record id of the culprit.
    pub record_id: u64,
    /// The culprit thread's name at registration ("" when unnamed).
    pub thread_name: String,
    /// Epoch the culprit has been pinned at for the whole episode.
    pub pinned_epoch: u64,
    /// The culprit's outermost-pin sequence at blame time — the identity a
    /// Hyaline-style batch captures, so the doctor can tie the stall to
    /// the batches it blocks.
    pub pin_seq: u64,
    /// How long the culprit had been pinned when last observed, in
    /// nanoseconds. Refreshed every watchdog scan while the episode
    /// lasts; frozen at clear time.
    pub stalled_for_ns: u64,
    /// Watchdog-clock timestamp (process-relative nanoseconds) the
    /// episode started at.
    pub since_ns: u64,
    /// Non-empty hazard-pointer slots the culprit was publishing at blame
    /// time — the addresses it pins against hazard scans.
    pub hazards: Vec<usize>,
    /// Whether the episode has ended (the reader unpinned or made
    /// progress). Live culprits report `false`.
    pub cleared: bool,
}

/// Driver-written, snapshot-read blame store, guarded by a mutex in
/// `Inner`; only the watchdog writes, so the lock is uncontended.
#[derive(Default)]
pub(crate) struct BlameState {
    /// Live episodes by record id (several readers can stall at once).
    active: HashMap<u64, BlameReport>,
    /// Cleared episodes, oldest first, bounded by [`HISTORY_CAP`].
    history: VecDeque<BlameReport>,
    /// Total episodes ever attributed (not bounded by the history cap).
    total: u64,
}

impl BlameState {
    /// Opens a new episode for `report.record_id`. Called exactly once per
    /// episode, at the same point the warn latch is set.
    fn open(&mut self, report: BlameReport) {
        self.total += 1;
        // A stale live entry for the same record (episode ended while the
        // watchdog was not looking — e.g. registry pruning races) retires
        // to history rather than being overwritten silently.
        if let Some(mut old) = self.active.remove(&report.record_id) {
            old.cleared = true;
            self.push_history(old);
        }
        self.active.insert(report.record_id, report);
    }

    /// Refreshes the live episode's observed duration.
    fn refresh(&mut self, record_id: u64, stalled_for_ns: u64) {
        if let Some(report) = self.active.get_mut(&record_id) {
            report.stalled_for_ns = report.stalled_for_ns.max(stalled_for_ns);
        }
    }

    /// Ends the episode for `record_id`, freezing its final duration.
    fn clear(&mut self, record_id: u64, stalled_for_ns: u64) {
        if let Some(mut report) = self.active.remove(&record_id) {
            report.stalled_for_ns = report.stalled_for_ns.max(stalled_for_ns);
            report.cleared = true;
            self.push_history(report);
        }
    }

    fn push_history(&mut self, report: BlameReport) {
        if self.history.len() == HISTORY_CAP {
            self.history.pop_front();
        }
        self.history.push_back(report);
    }

    /// Cleared history followed by live episodes (live last, so the most
    /// actionable entry renders at the bottom of a transcript).
    pub(crate) fn reports(&self) -> Vec<BlameReport> {
        let mut out: Vec<BlameReport> = self.history.iter().cloned().collect();
        out.extend(self.active());
        out
    }

    /// Live (uncleared) episodes only, ordered by episode start.
    pub(crate) fn active(&self) -> Vec<BlameReport> {
        let mut live: Vec<BlameReport> = self.active.values().cloned().collect();
        live.sort_by_key(|r| r.since_ns);
        live
    }

    /// Total episodes ever attributed.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

/// Driver-thread-local state of the stall watchdog: one entry per reader
/// record, keyed by record id. Never shared — only the grace-period driver
/// reads or writes it, so no entry needs atomics.
#[derive(Default)]
pub(crate) struct StallWatch {
    entries: HashMap<u64, WatchEntry>,
}

struct WatchEntry {
    /// The pinned epoch the current episode was first observed at
    /// (`None` = record was unpinned at the last scan).
    pinned: Option<u64>,
    /// Scan timestamp the episode started at.
    since_ns: u64,
    /// Whether this episode already fired its (single) warning.
    warned: bool,
    /// Scratch: seen during the current scan (prunes dead records).
    seen: bool,
}

impl Inner {
    /// One stall-watchdog pass over the reader registry at time `now_ns`
    /// (the driver's clock; see the module docs). Detection latency is
    /// bounded below by the interval between calls.
    pub(crate) fn watchdog_scan(&self, watch: &mut StallWatch, now_ns: u64) {
        let threshold = self.config.stall_threshold.as_nanos() as u64;
        for entry in watch.entries.values_mut() {
            entry.seen = false;
        }
        self.registry.walk(|active| {
            for rec in active {
                // Advisory Relaxed read is all a watchdog needs: a stale
                // view only shifts detection by one scan either way.
                let pinned = rec.peek_pinned_epoch();
                let entry = watch.entries.entry(rec.id()).or_insert(WatchEntry {
                    pinned: None,
                    since_ns: now_ns,
                    warned: false,
                    seen: true,
                });
                entry.seen = true;
                let stalled_for = now_ns.saturating_sub(entry.since_ns);
                if pinned.is_none() || pinned != entry.pinned {
                    // Episode over (unpin) or a new one starting (fresh
                    // pin / re-pin at a later epoch).
                    if entry.warned {
                        self.clear_stall(rec.id(), stalled_for);
                    }
                    *entry = WatchEntry {
                        pinned,
                        since_ns: now_ns,
                        warned: false,
                        seen: true,
                    };
                    continue;
                }
                // Still pinned at the same epoch: the episode continues.
                if !entry.warned && stalled_for >= threshold {
                    entry.warned = true;
                    self.warn_stall(rec, entry.pinned, stalled_for, entry.since_ns);
                } else if entry.warned {
                    self.blame.lock().refresh(rec.id(), stalled_for);
                }
                if entry.warned {
                    self.stats
                        .longest_stall_ns
                        .fetch_max(stalled_for, Ordering::Relaxed);
                }
            }
        });
        // Records pruned from the registry take their episodes with them.
        watch.entries.retain(|&id, entry| {
            if !entry.seen && entry.warned {
                self.clear_stall(id, now_ns.saturating_sub(entry.since_ns));
            }
            entry.seen
        });
    }

    /// Fires the episode's one warning and opens its blame report. The
    /// record is in hand (registry locked), so the culprit's identity —
    /// name, pin sequence, published hazards — costs no extra
    /// synchronization and no reader-side work.
    fn warn_stall(&self, rec: &ThreadRecord, pinned: Option<u64>, stalled_for: u64, since: u64) {
        self.stats.stall_warnings.fetch_add(1, Ordering::Relaxed);
        self.stats.active_stalls.fetch_add(1, Ordering::Relaxed);
        self.stats.stall_blames.fetch_add(1, Ordering::Relaxed);
        let report = BlameReport {
            record_id: rec.id(),
            thread_name: rec.thread_name().to_string(),
            pinned_epoch: pinned.unwrap_or_default(),
            pin_seq: rec.pin_seq(),
            stalled_for_ns: stalled_for,
            since_ns: since,
            hazards: (0..HP_SLOTS)
                .map(|s| rec.hazard(s))
                .filter(|&a| a != 0)
                .collect(),
            cleared: false,
        };
        if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::StallWarn, 0, stalled_for, rec.id());
            self.ring
                .record_thread(EventKind::StallBlame, 0, rec.id(), report.pin_seq);
        }
        self.blame.lock().open(report);
    }

    fn clear_stall(&self, record_id: u64, stalled_for_ns: u64) {
        self.stats.active_stalls.fetch_sub(1, Ordering::Relaxed);
        self.blame.lock().clear(record_id, stalled_for_ns);
        if pbs_telemetry::enabled() {
            self.ring
                .record_thread(EventKind::StallClear, 0, stalled_for_ns, record_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RcuConfig;
    use std::time::Duration;

    fn report(id: u64, since: u64) -> BlameReport {
        BlameReport {
            record_id: id,
            thread_name: format!("reader-{id}"),
            since_ns: since,
            stalled_for_ns: 100,
            ..Default::default()
        }
    }

    #[test]
    fn open_refresh_clear_lifecycle() {
        let mut state = BlameState::default();
        state.open(report(7, 10));
        assert_eq!(state.active().len(), 1);
        state.refresh(7, 500);
        assert_eq!(state.active()[0].stalled_for_ns, 500);
        state.refresh(7, 300);
        assert_eq!(state.active()[0].stalled_for_ns, 500, "duration only grows");
        state.clear(7, 900);
        assert!(state.active().is_empty());
        let all = state.reports();
        assert_eq!(all.len(), 1);
        assert!(all[0].cleared);
        assert_eq!(all[0].stalled_for_ns, 900);
        assert_eq!(state.total(), 1);
    }

    #[test]
    fn concurrent_culprits_coexist() {
        let mut state = BlameState::default();
        state.open(report(1, 5));
        state.open(report(2, 3));
        let live = state.active();
        assert_eq!(live.len(), 2);
        assert_eq!(live[0].record_id, 2, "sorted by episode start");
        state.clear(1, 0);
        assert_eq!(state.active().len(), 1);
        assert_eq!(state.reports().len(), 2);
    }

    #[test]
    fn history_is_bounded() {
        let mut state = BlameState::default();
        for i in 0..(HISTORY_CAP as u64 + 5) {
            state.open(report(i, i));
            state.clear(i, i);
        }
        assert_eq!(state.reports().len(), HISTORY_CAP);
        assert_eq!(state.total(), HISTORY_CAP as u64 + 5);
    }

    #[test]
    fn reopen_retires_stale_entry() {
        let mut state = BlameState::default();
        state.open(report(4, 1));
        state.open(report(4, 2));
        assert_eq!(state.active().len(), 1);
        let all = state.reports();
        assert_eq!(all.len(), 2);
        assert!(all[0].cleared, "stale entry retired to history");
        assert!(!all[1].cleared);
    }

    #[test]
    fn stalled_reader_warns_exactly_once_and_clears_on_unpin() {
        // No driver thread and no clock: the scans run on synthetic time.
        const MS: u64 = 1_000_000;
        let inner = Inner::new(RcuConfig::default().with_stall_threshold(Duration::from_millis(5)));
        let rec = inner.registry.register();
        let mut watch = StallWatch::default();
        let scan = |watch: &mut StallWatch, now| inner.watchdog_scan(watch, now);
        rec.pin(0);
        scan(&mut watch, 10 * MS);
        scan(&mut watch, 14 * MS);
        let under = inner.stats.snapshot();
        assert_eq!(under.stall_warnings, 0, "no warning under the threshold");
        assert_eq!(under.longest_stall_ns, 0);
        // Many thresholds and many scans: still one warning per episode.
        for now in [15, 20, 40, 70] {
            scan(&mut watch, now * MS);
        }
        let during = inner.stats.snapshot();
        assert_eq!(during.stall_warnings, 1, "one warning per stall episode");
        assert_eq!(during.active_stalls, 1, "stall is active while pinned");
        assert_eq!(during.longest_stall_ns, 60 * MS);
        assert_eq!(inner.blame.lock().active()[0].stalled_for_ns, 60 * MS);
        rec.unpin();
        scan(&mut watch, 80 * MS);
        let after = inner.stats.snapshot();
        assert_eq!(after.stall_warnings, 1, "clearing must not re-warn");
        assert_eq!(after.active_stalls, 0, "stall cleared on unpin");
        let reports = inner.blame.lock().reports();
        assert!(reports[0].cleared);
        assert_eq!(
            reports[0].stalled_for_ns,
            70 * MS,
            "final duration frozen at clear"
        );
        // A fresh stall is a fresh episode with its own warning.
        rec.pin(1);
        scan(&mut watch, 90 * MS);
        scan(&mut watch, 95 * MS);
        assert_eq!(
            inner.stats.snapshot().stall_warnings,
            2,
            "new episode warns anew"
        );
        // A record that leaves the registry takes its episode with it.
        rec.deactivate();
        scan(&mut watch, 99 * MS);
        assert_eq!(inner.stats.snapshot().active_stalls, 0);
        assert_eq!(inner.blame.lock().total(), 2);
    }
}
