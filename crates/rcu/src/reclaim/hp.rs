//! The hazard-pointer backend: per-thread protection slots and a
//! scan-on-threshold retire list.
//!
//! ## Garbage bound
//!
//! Retired objects accumulate on one shared retire list; once it reaches
//! `scan_threshold` entries, the next [`defer`] runs a scan that returns
//! every entry no published hazard protects. A reader — stalled or not —
//! can protect at most [`HP_SLOTS`](crate::HP_SLOTS) addresses, so the
//! list length never exceeds
//! `scan_threshold + threads × HP_SLOTS + concurrent-defer slack`:
//! a stalled reader pins *its hazards*, never the clock, and the rest of
//! the system keeps reclaiming. That is the whole point of the backend,
//! and what the chaos `stalled-reader` bound assertion measures.
//!
//! ## Ordering argument (membarrier reuse)
//!
//! The scan reads hazards inside the registry's one advancer-side
//! barrier-then-scan (`fence(SeqCst)` then a process-wide `membarrier`),
//! the same one every epoch advance runs. The pairing is the
//! classic hazard-pointer one. A reader acquires protection by
//! *publish-then-revalidate* ([`RcuThread::protect`]): store the hazard,
//! (compiler) fence, re-read the shared pointer. A scanner frees `addr`
//! only if it saw no hazard for it after its barrier. Two cases:
//!
//! * the reader's hazard store was ordered before the scanner's
//!   membarrier — then the scanner's subsequent load sees it and keeps
//!   the object;
//! * the store was ordered after — then the reader's *revalidation load*
//!   is also after the barrier, and therefore sees the unlink that
//!   preceded the retire (unlink → defer → scan barrier), so validation
//!   fails and the reader never dereferences the object.
//!
//! Either way no freed object is dereferenced. In fallback mode (no
//! `membarrier(2)`) readers fence themselves inside `protect` and the
//! same two-case argument runs off the SeqCst total order.
//!
//! [`defer`]: ReclamationDomain::defer
//! [`RcuThread::protect`]: crate::RcuThread::protect

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;
use pbs_telemetry::EventKind;

use super::{
    advance_refused, drain_prefix, ClientId, ClientRegistry, ReclaimBackend, ReclaimClient,
    ReclaimConfig, ReclaimStats, ReclamationDomain,
};
use crate::registry::HP_SLOTS;
use crate::stats::ReclaimCounters;
use crate::Rcu;

/// One retired object awaiting an unprotected scan.
struct Retired {
    client: ClientId,
    addr: usize,
    /// Retire order; [`HpDomain::synchronize`] waits for a prefix of it.
    seq: u64,
}

/// Hazard-pointer backend; see the module docs.
pub struct HpDomain {
    rcu: Arc<Rcu>,
    config: ReclaimConfig,
    clients: ClientRegistry,
    retired: Mutex<Vec<Retired>>,
    retire_seq: AtomicU64,
    stats: ReclaimCounters,
}

impl HpDomain {
    /// A hazard-pointer domain over `rcu`'s reader registry.
    pub fn new(rcu: Arc<Rcu>, config: ReclaimConfig) -> Self {
        // Guards on this registry now speak the hp protocol (their
        // hazard slots gate this domain's scans); data-structure guard
        // checks consult the mark via `ReadGuard::protects_backend`.
        rcu.attach_backend(ReclaimBackend::Hp);
        Self {
            rcu,
            config,
            clients: ClientRegistry::default(),
            retired: Mutex::new(Vec::new()),
            retire_seq: AtomicU64::new(0),
            stats: ReclaimCounters::default(),
        }
    }

    /// Runs one retire-list scan unless the `reclaim.advance` fault site
    /// refuses it. Returns the number of objects reclaimed.
    fn try_scan(&self) -> usize {
        if advance_refused(&self.rcu, &self.stats.injected_stalls) {
            return 0;
        }
        let mut retired = self.retired.lock();
        if retired.is_empty() {
            return 0;
        }
        // See the module docs for why these hazard loads are trustworthy.
        let hazards: HashSet<usize> = self.rcu.inner().registry.barrier_then_scan(|active| {
            active
                .flat_map(|rec| (0..HP_SLOTS).map(move |slot| rec.hazard(slot)))
                .filter(|&addr| addr != 0)
                .collect()
        });
        let (kept, ready): (Vec<Retired>, Vec<Retired>) = retired
            .drain(..)
            .partition(|entry| hazards.contains(&entry.addr));
        self.stats
            .scan_protected
            .fetch_add(kept.len() as u64, Ordering::Relaxed);
        *retired = kept;
        drop(retired);
        self.stats.scans.fetch_add(1, Ordering::Relaxed);
        // Locks dropped, per the `ReclaimClient` contract.
        let reclaimed = self
            .clients
            .deliver(ready.into_iter().map(|e| (e.client, e.addr)));
        self.stats
            .scan_reclaimed
            .fetch_add(reclaimed as u64, Ordering::Relaxed);
        self.stats
            .deferred_in_domain
            .fetch_sub(reclaimed, Ordering::Relaxed);
        if pbs_telemetry::enabled() {
            self.rcu.inner().ring.record_thread(
                EventKind::HpScan,
                0,
                reclaimed as u64,
                hazards.len() as u64,
            );
        }
        reclaimed
    }
}

impl ReclamationDomain for HpDomain {
    fn backend(&self) -> ReclaimBackend {
        ReclaimBackend::Hp
    }

    fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }

    fn register_client(&self, client: Weak<dyn ReclaimClient>) -> ClientId {
        self.clients.register(client)
    }

    fn defer(&self, client: ClientId, addr: usize) {
        let seq = self.retire_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.deferred_in_domain.fetch_add(1, Ordering::Relaxed);
        let len = {
            let mut retired = self.retired.lock();
            retired.push(Retired { client, addr, seq });
            retired.len()
        };
        if len >= self.config.scan_threshold {
            self.try_scan();
        }
    }

    fn advance(&self) -> bool {
        self.try_scan() > 0
    }

    fn synchronize(&self) {
        // Wait for the prefix of the retire order that existed at entry;
        // later defers are not this call's business. Hazards held by live
        // readers block exactly like an epoch pin blocks synchronize —
        // the difference is they block only their own addresses.
        let target = self.retire_seq.load(Ordering::Relaxed);
        drain_prefix(target, Duration::from_micros(50), || {
            self.try_scan();
            self.retired.lock().iter().map(|r| r.seq).min()
        });
    }

    fn deferred_in_domain(&self) -> usize {
        self.stats.deferred_in_domain.load(Ordering::Relaxed)
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        ReclaimStats {
            backend: self.backend().label().to_owned(),
            ..self.stats.snapshot()
        }
    }
}

impl std::fmt::Debug for HpDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HpDomain")
            .field("deferred", &self.deferred_in_domain())
            .field("scans", &self.stats.scans.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::RecordingClient;
    use super::*;
    use crate::RcuConfig;

    fn small_domain(rcu: &Arc<Rcu>, threshold: usize) -> HpDomain {
        HpDomain::new(
            Arc::clone(rcu),
            ReclaimConfig {
                scan_threshold: threshold,
                ..ReclaimConfig::default()
            },
        )
    }

    #[test]
    fn threshold_scan_reclaims_unprotected_objects() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = small_domain(&rcu, 8);
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        for addr in 1..=8usize {
            domain.defer(id, addr << 4);
        }
        // The 8th defer crossed the threshold and scanned.
        assert_eq!(client.count(), 8);
        assert_eq!(domain.deferred_in_domain(), 0);
        let stats = domain.reclaim_stats();
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.scan_reclaimed, 8);
    }

    #[test]
    fn hazard_blocks_exactly_its_address() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = small_domain(&rcu, 4);
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        let reader = rcu.register();
        let protected = 0xDEAD0usize;
        reader.protect(0, protected);
        domain.defer(id, protected);
        for addr in [0x10usize, 0x20, 0x30, 0x40] {
            domain.defer(id, addr);
        }
        // Sweep the stragglers below the threshold too.
        domain.advance();
        // Scans ran (threshold 4) but the protected address stayed put.
        assert!(domain.reclaim_stats().scans >= 1);
        assert_eq!(domain.deferred_in_domain(), 1);
        assert!(!client.reclaimed.lock().contains(&protected));
        // A pin alone protects nothing under hp: everything unprotected
        // was reclaimed even though no grace period completed.
        assert_eq!(client.count(), 4);
        reader.clear_protection(0);
        domain.synchronize();
        assert_eq!(domain.deferred_in_domain(), 0);
        assert!(client.reclaimed.lock().contains(&protected));
    }

    #[test]
    fn stalled_pin_does_not_grow_the_retire_list() {
        // The bound: a reader pinned forever (no hazards) leaves the
        // retire list capped at the scan threshold.
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let threshold = 16;
        let domain = small_domain(&rcu, threshold);
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        let reader = rcu.register();
        let _guard = reader.read_lock(); // stalled, holds no hazards
        for addr in 1..=1000usize {
            domain.defer(id, addr << 4);
            assert!(
                domain.deferred_in_domain() <= threshold,
                "retire list exceeded the scan threshold under a stalled pin"
            );
        }
        domain.synchronize(); // completes despite the pin
        assert_eq!(client.count(), 1000);
    }

    #[test]
    fn synchronize_waits_only_for_its_prefix() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = Arc::new(small_domain(&rcu, 1024));
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        domain.defer(id, 0x100);
        domain.synchronize();
        assert_eq!(client.count(), 1);
    }

    #[test]
    fn injected_refusals_procrastinate_but_do_not_lose_objects() {
        use pbs_fault::{site, FaultInjector, Schedule};
        let faults = Arc::new(FaultInjector::new(7));
        for n in 1..=3 {
            faults.schedule(site::RECLAIM_ADVANCE, Schedule::Nth(n));
        }
        // Park the background gp driver: it consults the generalized
        // site too (epoch advances are reclamation progress), and this
        // test wants the schedule consumed by the hp scans.
        let config = RcuConfig {
            driver_interval: std::time::Duration::from_secs(3600),
            ..RcuConfig::eager()
        };
        let rcu = Arc::new(Rcu::with_config(
            config.with_fault_injector(Arc::clone(&faults)),
        ));
        let domain = small_domain(&rcu, 4);
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        for addr in 1..=16usize {
            domain.defer(id, addr << 4);
        }
        domain.synchronize();
        assert_eq!(client.count(), 16);
        assert!(domain.reclaim_stats().injected_stalls >= 1);
    }
}
