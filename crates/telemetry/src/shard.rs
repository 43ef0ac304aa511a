//! Per-shard server gauges: connection, shed and timeout accounting.
//!
//! A reactor shard is a single-writer domain, so each shard gets one
//! cache-padded block of counters it alone increments; any thread may
//! snapshot. The set is allocated once for the run (no registration
//! protocol) and snapshots fold into per-shard rows plus a totals row for
//! the report and the degradation gates.

use std::sync::atomic::{AtomicU64, Ordering};

use crossbeam::utils::CachePadded;
use serde::{Deserialize, Serialize};

crate::counter_table! {
    /// A point-in-time copy of one shard's gauges (or the totals across
    /// shards). Not part of the `/metrics` exposition — the server report
    /// is JSON — so the series names only pin what a scrape would call
    /// these rows.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ShardRow {}

    /// One shard's counters. All monotonic except [`open_conns`], a gauge
    /// the shard stores outright; the totals row sums it like the rest
    /// (the open-connection count is the sum of per-shard gauges).
    ///
    /// [`open_conns`]: ShardGauges::open_conns
    pub struct ShardGauges {
        /// Connections accepted (handshake completed, state allocated).
        accepted: AtomicU64 => u64, counter "pbs_server_accepted_total", sum;
        /// Dials shed at the listen queue (accept backpressure).
        shed_accepts: AtomicU64 => u64, counter "pbs_server_shed_accepts_total", sum;
        /// Handshakes refused by injected `net.accept` faults (dropped SYNs).
        refused_accepts: AtomicU64 => u64, counter "pbs_server_refused_accepts_total", sum;
        /// Established connections evicted by load shedding (hard pressure).
        shed_conns: AtomicU64 => u64, counter "pbs_server_shed_conns_total", sum;
        /// Connections evicted by an idle/slow deadline.
        timeouts: AtomicU64 => u64, counter "pbs_server_timeouts_total", sum;
        /// Reads that returned would-block (slowloris peers).
        read_stalls: AtomicU64 => u64, counter "pbs_server_read_stalls_total", sum;
        /// Requests fully served.
        requests: AtomicU64 => u64, counter "pbs_server_requests_total", sum;
        /// Alloc-failure retries taken by the backoff path.
        alloc_retries: AtomicU64 => u64, counter "pbs_server_alloc_retries_total", sum;
        /// Connections dropped because the retry budget ran out.
        alloc_drops: AtomicU64 => u64, counter "pbs_server_alloc_drops_total", sum;
        /// Live connections on the shard (gauge).
        open_conns: AtomicU64 => u64, gauge "pbs_server_open_conns", sum;
    }
}

impl ShardGauges {
    /// Bumps a counter by one (all counters are relaxed; single writer).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores the live-connection gauge.
    pub fn set_open(&self, n: u64) {
        self.open_conns.store(n, Ordering::Relaxed);
    }
}

/// The per-shard gauge set for one server run.
#[derive(Debug)]
pub struct ShardSet {
    shards: Vec<CachePadded<ShardGauges>>,
}

impl ShardSet {
    /// Allocates gauges for `nshards` shards.
    pub fn new(nshards: usize) -> Self {
        Self {
            shards: (0..nshards)
                .map(|_| CachePadded::new(ShardGauges::default()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The gauge block for shard `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &ShardGauges {
        &self.shards[index]
    }

    /// Per-shard rows in shard order.
    pub fn rows(&self) -> Vec<ShardRow> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Sum of all shards' rows.
    pub fn totals(&self) -> ShardRow {
        let mut total = ShardRow::default();
        for shard in &self.shards {
            shard.add_into(&mut total);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_snapshots_merges_and_deltas_by_its_table_rule() {
        let row = crate::table::check_table(ShardRow::FIELDS, ShardRow::merge, ShardRow::delta);
        let set = ShardSet::new(3);
        set.shard(1).preload(&row);
        assert_eq!(set.rows()[1], row);
        assert_eq!(set.rows()[0], ShardRow::default());
        // Totals fold every shard by the same rules.
        set.shard(2).preload(&row);
        let mut twice = row;
        twice.merge(&row);
        assert_eq!(set.totals(), twice);
    }
}
