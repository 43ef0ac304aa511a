//! RCU domain and reclamation-backend statistics: the crate's two counter
//! tables.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use pbs_telemetry::LogHistogram;
use serde::{Deserialize, Serialize};

pbs_telemetry::counter_table! {
    /// Point-in-time statistics for an [`Rcu`](crate::Rcu) domain.
    ///
    /// # Example
    ///
    /// ```
    /// use pbs_rcu::Rcu;
    ///
    /// let rcu = Rcu::new();
    /// rcu.synchronize();
    /// let stats = rcu.stats();
    /// assert!(stats.gp_advances >= 2);
    /// assert_eq!(stats.callback_backlog, 0);
    /// // Every advance went through exactly one of the two barrier paths.
    /// assert_eq!(
    ///     stats.gp_advances,
    ///     stats.membarrier_advances + stats.fallback_fence_advances
    /// );
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
    pub struct RcuStats {}

    /// The domain's live counters, plus its two latency histograms.
    pub struct StatsInner {
        /// Number of epoch advances (two advances = one grace period).
        gp_advances: AtomicU64 => u64, counter "pbs_rcu_gp_advances_total", sum;
        /// Number of blocking `synchronize` calls completed.
        synchronize_calls: AtomicU64 => u64, counter "pbs_rcu_synchronize_calls_total", sum;
        /// Advances decided with readers on the fence-elided path (the
        /// advancer's `membarrier` carried the StoreLoad ordering).
        membarrier_advances: AtomicU64 => u64, counter "pbs_rcu_membarrier_advances_total", sum;
        /// Advances decided on the portable fallback path (readers issue their
        /// own publication fence; `heavy_barrier` is a no-op).
        fallback_fence_advances: AtomicU64 => u64, counter "pbs_rcu_fallback_fence_advances_total", sum;
        /// Grace-period advance attempts refused by injected faults (fault
        /// site `reclaim.advance`); stays zero without a
        /// [`fault_injector`](crate::RcuConfig::fault_injector).
        injected_gp_stalls: AtomicU64 => u64, counter "pbs_rcu_injected_gp_stalls_total", sum;
        /// Reader stall episodes the watchdog warned about. Exactly one
        /// warning per episode: the counter bumps when a pin first exceeds
        /// [`stall_threshold`](crate::RcuConfig::stall_threshold) and not
        /// again until that reader unpins and stalls anew.
        stall_warnings: AtomicU64 => u64, counter "pbs_rcu_stall_warnings_total", sum;
        /// Longest reader stall observed, in nanoseconds (`fetch_max`; still
        /// growing while a stall is in progress).
        longest_stall_ns: AtomicU64 => u64, gauge "pbs_rcu_longest_stall_ns", max;
        /// Readers currently pinned past the stall threshold (gauge:
        /// incremented at warn, decremented at clear; returns to zero when
        /// every warned reader unpins).
        active_stalls: AtomicU64 => u64, gauge "pbs_rcu_active_stalls", sum;
        /// Stall episodes attributed to a culprit (equals the number of
        /// [`BlameReport`](crate::BlameReport)s ever opened; at most one per
        /// warned episode).
        stall_blames: AtomicU64 => u64, counter "pbs_rcu_stall_blames_total", sum;
        /// Expedited grace-period drives
        /// ([`synchronize_expedited`](crate::Rcu::synchronize_expedited) /
        /// `expedite`).
        expedited_gps: AtomicU64 => u64, counter "pbs_rcu_expedited_gps_total", sum;
        /// Callbacks ever queued by an
        /// [`EpochDomain`](crate::reclaim::EpochDomain) over this domain.
        callbacks_enqueued: AtomicU64 => u64, counter "pbs_rcu_callbacks_enqueued_total", sum;
        /// Callbacks delivered to their client.
        callbacks_processed: AtomicU64 => u64, counter "pbs_rcu_callbacks_processed_total", sum;
        /// Highest backlog ever observed (the paper's §3.4 DoS metric).
        max_callback_backlog: AtomicUsize => usize, gauge "pbs_rcu_max_callback_backlog", max;
    } + {
        /// Wall-clock duration of blocking `synchronize` calls — the paper's
        /// grace-period latency distribution.
        pub gp_latency: LogHistogram,
    }

    derived {
        /// Callbacks currently waiting: `callbacks_enqueued −
        /// callbacks_processed`, filled by [`Rcu::stats`](crate::Rcu::stats).
        callback_backlog: usize, gauge "pbs_rcu_callback_backlog", sum;
    }
}

pbs_telemetry::counter_table! {
    /// Point-in-time statistics of a
    /// [`ReclamationDomain`](crate::reclaim::ReclamationDomain).
    #[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ReclaimStats {
        /// [`ReclaimBackend::label`](crate::reclaim::ReclaimBackend::label)
        /// of the producing backend.
        pub backend: String,
    }

    /// The live counters of the `hp` and `hyaline` domains (each bumps the
    /// rows of its own mechanism; the rest stay zero, which is how every
    /// backend exports the same series).
    pub struct ReclaimCounters {
        /// Objects deferred into the domain and not yet returned to their
        /// clients (for `epoch` this is the callback backlog).
        deferred_in_domain: AtomicUsize => usize, gauge "pbs_reclaim_deferred_in_domain", sum;
        /// `hp`: retire-list scans that ran (refused ones excluded).
        scans: AtomicU64 => u64, counter "pbs_reclaim_hp_scans_total", sum;
        /// `hp`: objects a scan found unprotected and returned.
        scan_reclaimed: AtomicU64 => u64, counter "pbs_reclaim_scan_reclaimed_total", sum;
        /// `hp`: object observations left on the retire list because a
        /// hazard protected them (an object kept across `n` scans counts
        /// `n` times).
        scan_protected: AtomicU64 => u64, counter "pbs_reclaim_scan_protected_total", sum;
        /// `hyaline`: batches sealed with a captured reference set.
        batches_sealed: AtomicU64 => u64, counter "pbs_reclaim_batch_seals_total", sum;
        /// `hyaline`: reader references captured across all seals.
        batch_refs_captured: AtomicU64 => u64, counter "pbs_reclaim_batch_refs_captured_total", sum;
        /// `hyaline`: stalled readers ejected to release blocked batches.
        ejections: AtomicU64 => u64, counter "pbs_reclaim_reader_ejects_total", sum;
        /// Reclamation steps refused by the `reclaim.advance` fault site
        /// (for `epoch`, the domain's
        /// [`injected_gp_stalls`](RcuStats::injected_gp_stalls), mirrored).
        injected_stalls: AtomicU64 => u64, counter "pbs_reclaim_injected_stalls_total", sum;
    }
}

impl StatsInner {
    /// Counts an enqueue and folds the backlog it leaves into the
    /// high-water mark (`fetch_max`: the maximum only ever grows).
    pub(crate) fn record_enqueue(&self) {
        let enqueued = self.callbacks_enqueued.fetch_add(1, Ordering::Relaxed) + 1;
        let backlog = enqueued.saturating_sub(self.callbacks_processed.load(Ordering::Relaxed));
        self.max_callback_backlog
            .fetch_max(backlog as usize, Ordering::Relaxed);
    }

    pub(crate) fn record_processed(&self, n: u64) {
        self.callbacks_processed.fetch_add(n, Ordering::Relaxed);
    }

    /// Callbacks enqueued and not yet delivered.
    pub(crate) fn backlog(&self) -> usize {
        let processed = self.callbacks_processed.load(Ordering::Relaxed);
        self.callbacks_enqueued
            .load(Ordering::Relaxed)
            .saturating_sub(processed) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = StatsInner::default();
        s.record_enqueue();
        s.record_enqueue();
        s.record_processed(1);
        let snap = s.snapshot();
        assert_eq!(snap.callbacks_enqueued, 2);
        assert_eq!(snap.callbacks_processed, 1);
        assert_eq!(snap.max_callback_backlog, 2);
        assert_eq!(s.backlog(), 1);
    }

    #[test]
    fn max_backlog_is_monotone() {
        let s = StatsInner::default();
        for _ in 0..10 {
            s.record_enqueue();
        }
        s.record_processed(8);
        s.record_enqueue();
        assert_eq!(s.snapshot().max_callback_backlog, 10);
    }

    #[test]
    fn max_backlog_survives_concurrent_publication() {
        // The monotonicity contract under contention: whatever interleaving
        // occurs, the enqueue that took the count to 4000 saw it last.
        let s = std::sync::Arc::new(StatsInner::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.record_enqueue();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.max_callback_backlog, 4000);
        assert_eq!(snap.callbacks_enqueued, 4000);
    }

    /// Every table row, without naming one (the derived backlog row is
    /// filled by `Rcu::stats`, so the live block reads back all but it).
    #[test]
    fn every_row_snapshots_merges_and_deltas_by_its_table_rule() {
        let want =
            pbs_telemetry::table::check_table(RcuStats::FIELDS, RcuStats::merge, RcuStats::delta);
        let s = StatsInner::default();
        s.preload(&want);
        let got = RcuStats {
            callback_backlog: want.callback_backlog,
            ..s.snapshot()
        };
        assert_eq!(got, want);
    }

    #[test]
    fn every_reclaim_row_snapshots_merges_and_deltas_by_its_table_rule() {
        let want = pbs_telemetry::table::check_table(
            ReclaimStats::FIELDS,
            ReclaimStats::merge,
            ReclaimStats::delta,
        );
        let live = ReclaimCounters::default();
        live.preload(&want);
        assert_eq!(live.snapshot(), want);
    }
}
