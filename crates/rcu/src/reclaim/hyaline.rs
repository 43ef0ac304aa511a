//! The Hyaline-style backend: reference-tracked retire batches with
//! stalled-reader ejection.
//!
//! Deferred objects accumulate in an *open* batch; at `batch_size` the
//! batch **seals**: inside the registry's barrier-then-scan (SeqCst
//! fence + process-wide membarrier, the one every epoch advance runs)
//! the sealer walks the reader registry and records a
//! reference `(record_id, pin_seq)` for every reader pinned at that
//! moment. The batch may be released — its objects returned to their
//! caches — once every captured reference is *observed dead*: the record
//! is gone or inactive, unpinned, re-pinned at a later sequence, or
//! ejected. This trades Hyaline's reader-side release decrements for
//! scanner-side observation (readers stay store-only on the fast path,
//! matching this codebase's asymmetric-barrier design), at the cost of a
//! release pass that must be driven (by defers, pressure expedites, or
//! `synchronize`).
//!
//! ## Capture argument
//!
//! A reader can hold a batch object only if it was pinned *before* the
//! object's unlink and has remained in that critical section since
//! (unlink → defer → seal, and under this crate's reader contract a
//! pointer obtained in one critical section may not be carried into the
//! next). Such a reader is still pinned at seal time with the same
//! `pin_seq`, so the seal captures it: the registry walk observes pin
//! words with an RMW *after* the membarrier, and the sequence read
//! (Acquire, after the pin observation) is at least the observed pin's —
//! newer only if the reader already moved on, which is conservative. A
//! reader that pins after the sealer's membarrier is not captured, but
//! its critical-section loads run after the barrier and therefore see
//! the pre-barrier unlinks: it cannot reach any object in the batch.
//! Hence releasing a batch whose captured references have all exited
//! frees nothing any reader can still hold.
//!
//! ## Garbage bound via ejection
//!
//! One stalled reader blocks only the batches sealed *during its pin* —
//! but that is still unbounded in time, so the release pass additionally
//! tracks how long each captured reference has been blocking. Past
//! `eject_after` the reference is **ejected** (DEBRA+-style
//! neutralization, with a poll instead of a signal): the record's
//! ejection mark is set to the captured sequence and the reference is
//! dropped. Outstanding garbage is therefore bounded by the open batch
//! plus whatever was deferred inside one `eject_after` window — the
//! per-stalled-thread bound the chaos scenario asserts. The ejected
//! reader's side of the contract is [`ReadGuard::validate`]: after a
//! stall it must re-validate before trusting earlier reads.
//!
//! [`ReadGuard::validate`]: crate::ReadGuard::validate

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use parking_lot::Mutex;
use pbs_telemetry::EventKind;

use super::{
    advance_refused, drain_prefix, ClientId, ClientRegistry, ReclaimBackend, ReclaimClient,
    ReclaimConfig, ReclaimStats, ReclamationDomain,
};
use crate::registry::Record;
use crate::stats::ReclaimCounters;
use crate::Rcu;

/// A captured reader reference: this batch may not release while record
/// `record_id` is still pinned at `pin_seq` (and not ejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct BatchRef {
    record_id: u64,
    pin_seq: u64,
}

/// A sealed batch awaiting the death of its captured references.
struct Batch {
    /// Seal order; `synchronize` waits for a prefix of it.
    seq: u64,
    items: Vec<(ClientId, usize)>,
    refs: Vec<BatchRef>,
}

/// Hyaline-style batch backend; see the module docs.
pub struct HyalineDomain {
    rcu: Arc<Rcu>,
    config: ReclaimConfig,
    clients: ClientRegistry,
    open: Mutex<Vec<(ClientId, usize)>>,
    /// Sealed batches in seal order, plus the blocking clock: first time
    /// each still-live captured reference was seen blocking a batch.
    /// One lock for both so a release pass is atomic w.r.t. sealing.
    sealed: Mutex<SealedState>,
    batch_seq: AtomicU64,
    stats: ReclaimCounters,
}

#[derive(Default)]
struct SealedState {
    batches: Vec<Batch>,
    blocking_since: HashMap<BatchRef, Instant>,
}

impl HyalineDomain {
    /// A Hyaline-style domain over `rcu`'s reader registry.
    pub fn new(rcu: Arc<Rcu>, config: ReclaimConfig) -> Self {
        // Pins on this registry are now batch-captured (and ejectable)
        // by this domain; `ReadGuard::protects_backend` reports it.
        rcu.attach_backend(ReclaimBackend::Hyaline);
        Self {
            rcu,
            config,
            clients: ClientRegistry::default(),
            open: Mutex::new(Vec::new()),
            sealed: Mutex::new(SealedState::default()),
            batch_seq: AtomicU64::new(0),
            stats: ReclaimCounters::default(),
        }
    }

    /// Seals the open batch (if non-empty) with a freshly captured
    /// reference set, unless the `reclaim.advance` fault site refuses —
    /// refusal only procrastinates (the open batch keeps absorbing
    /// defers until a later attempt succeeds).
    fn try_seal(&self) -> bool {
        if advance_refused(&self.rcu, &self.stats.injected_stalls) {
            return false;
        }
        let items: Vec<(ClientId, usize)> = {
            let mut open = self.open.lock();
            if open.is_empty() {
                return false;
            }
            std::mem::take(&mut *open)
        };
        // After the barrier the walk's RMW pin observations are
        // trustworthy, and any reader it does NOT capture started after
        // the barrier and thus sees the unlinks that preceded every defer
        // in `items` (module docs).
        let refs: Vec<BatchRef> = self.rcu.inner().registry.barrier_then_scan(|active| {
            active
                .filter(|rec| rec.observe_pinned_epoch().is_some())
                .map(|rec| BatchRef {
                    record_id: rec.id(),
                    // Read after the pin observation: at least the
                    // observed pin's sequence (see `ThreadRecord`).
                    pin_seq: rec.pin_seq(),
                })
                .collect()
        });
        let seq = self.batch_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.batches_sealed.fetch_add(1, Ordering::Relaxed);
        self.stats.batch_refs_captured.fetch_add(refs.len() as u64, Ordering::Relaxed);
        if pbs_telemetry::enabled() {
            self.rcu.inner().ring.record_thread(
                EventKind::BatchSeal,
                0,
                items.len() as u64,
                refs.len() as u64,
            );
        }
        let batch = Batch { seq, items, refs };
        self.sealed.lock().batches.push(batch);
        true
    }

    /// One release pass: drop observed-dead references, eject readers
    /// that have been blocking past `eject_after`, return ready batches
    /// to their clients. Returns the number of objects released.
    fn release_pass(&self) -> usize {
        let inner = self.rcu.inner();
        let now = Instant::now();
        let ready: Vec<Batch> = {
            let mut sealed = self.sealed.lock();
            if sealed.batches.is_empty() {
                sealed.blocking_since.clear();
                return 0;
            }
            let SealedState {
                batches,
                blocking_since,
            } = &mut *sealed;
            // Index the live registry once per pass.
            let records: HashMap<u64, Record> = inner
                .registry
                .walk(|active| active.map(|rec| (rec.id(), Arc::clone(rec))).collect());
            let ref_alive = |r: &BatchRef| -> bool {
                let Some(rec) = records.get(&r.record_id) else {
                    return false; // record pruned or deactivated
                };
                if rec.observe_pinned_epoch().is_none() {
                    return false; // unpinned: the captured section exited
                }
                if rec.pin_seq() > r.pin_seq {
                    return false; // re-pinned since: ditto
                }
                // Ejected at exactly this sequence: capture revoked.
                !rec.ejected_at(r.pin_seq)
            };
            // The blocking clock and the ejector. A live reference starts
            // its clock the first pass it is seen blocking; continuously
            // blocked past the threshold, it is ejected — the revocation
            // takes effect for this pass immediately.
            let mut still_blocking: HashMap<BatchRef, Instant> = HashMap::new();
            let mut ejected: HashSet<BatchRef> = HashSet::new();
            for batch in batches.iter_mut() {
                batch.refs.retain(|r| {
                    if ejected.contains(r) || !ref_alive(r) {
                        return false; // dead, or ejected via an earlier batch
                    }
                    let since = *still_blocking
                        .entry(*r)
                        .or_insert_with(|| blocking_since.get(r).copied().unwrap_or(now));
                    if now.duration_since(since) >= self.config.eject_after {
                        if let Some(rec) = records.get(&r.record_id) {
                            rec.eject(r.pin_seq);
                        }
                        ejected.insert(*r);
                        still_blocking.remove(r);
                        self.stats.ejections.fetch_add(1, Ordering::Relaxed);
                        if pbs_telemetry::enabled() {
                            inner.ring.record_thread(
                                EventKind::ReaderEject,
                                0,
                                r.record_id,
                                r.pin_seq,
                            );
                        }
                        return false;
                    }
                    true
                });
            }
            *blocking_since = still_blocking;
            // Harvest batches with no surviving references.
            let (ready, remaining) = batches.drain(..).partition(|batch| batch.refs.is_empty());
            *batches = remaining;
            ready
        };
        // Locks dropped: deliver to clients per the ReclaimClient
        // contract.
        let total = self
            .clients
            .deliver(ready.into_iter().flat_map(|batch| batch.items));
        self.stats
            .deferred_in_domain
            .fetch_sub(total, Ordering::Relaxed);
        total
    }
}

impl ReclamationDomain for HyalineDomain {
    fn backend(&self) -> ReclaimBackend {
        ReclaimBackend::Hyaline
    }

    fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }

    fn register_client(&self, client: Weak<dyn ReclaimClient>) -> ClientId {
        self.clients.register(client)
    }

    fn defer(&self, client: ClientId, addr: usize) {
        self.stats.deferred_in_domain.fetch_add(1, Ordering::Relaxed);
        let len = {
            let mut open = self.open.lock();
            open.push((client, addr));
            open.len()
        };
        if len >= self.config.batch_size {
            self.try_seal();
            self.release_pass();
        }
    }

    fn advance(&self) -> bool {
        let sealed = self.try_seal();
        self.release_pass() > 0 || sealed
    }

    fn synchronize(&self) {
        // Seal whatever is open (so this call's defers are all in
        // batches), then wait for the sealed prefix that exists now.
        while !self.try_seal() && !self.open.lock().is_empty() {
            // Fault-refused seal with a non-empty open batch: retry, the
            // refusal only procrastinates.
            std::thread::yield_now();
        }
        let target = self.batch_seq.load(Ordering::Relaxed);
        // Ejection is time-based; nap a fraction of the threshold so a
        // blocked drain ends promptly after it.
        drain_prefix(target, self.config.eject_after / 8, || {
            self.release_pass();
            self.sealed.lock().batches.iter().map(|b| b.seq).min()
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

impl std::fmt::Debug for HyalineDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HyalineDomain")
            .field("deferred", &self.deferred_in_domain())
            .field("batches_sealed", &self.stats.batches_sealed.load(Ordering::Relaxed))
            .field("ejections", &self.stats.ejections.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::RecordingClient;
    use super::*;
    use crate::RcuConfig;
    use std::time::Duration;

    fn domain(rcu: &Arc<Rcu>, batch: usize, eject: Duration) -> HyalineDomain {
        HyalineDomain::new(
            Arc::clone(rcu),
            ReclaimConfig {
                batch_size: batch,
                eject_after: eject,
                ..ReclaimConfig::default()
            },
        )
    }

    #[test]
    fn unwatched_batches_release_immediately() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let d = domain(&rcu, 4, Duration::from_secs(1));
        let client = Arc::new(RecordingClient::default());
        let id = d.register_client(Arc::downgrade(&client) as Weak<dyn ReclaimClient>);
        for addr in 1..=4usize {
            d.defer(id, addr << 4);
        }
        // No reader was pinned at seal: the batch released on the spot.
        assert_eq!(client.count(), 4);
        assert_eq!(d.deferred_in_domain(), 0);
        let stats = d.reclaim_stats();
        assert_eq!(stats.batches_sealed, 1);
        assert_eq!(stats.batch_refs_captured, 0);
        assert_eq!(stats.ejections, 0);
    }

    #[test]
    fn pinned_reader_blocks_batches_until_unpin() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let d = domain(&rcu, 4, Duration::from_secs(30));
        let client = Arc::new(RecordingClient::default());
        let id = d.register_client(Arc::downgrade(&client) as Weak<dyn ReclaimClient>);
        let reader = rcu.register();
        let guard = reader.read_lock();
        for addr in 1..=4usize {
            d.defer(id, addr << 4);
        }
        assert_eq!(client.count(), 0, "captured batch released under its reader");
        assert_eq!(d.deferred_in_domain(), 4);
        assert!(guard.validate(), "no ejection this early");
        drop(guard);
        d.synchronize();
        assert_eq!(client.count(), 4);
    }

    #[test]
    fn repinning_reader_releases_earlier_captures() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let d = domain(&rcu, 4, Duration::from_secs(30));
        let client = Arc::new(RecordingClient::default());
        let id = d.register_client(Arc::downgrade(&client) as Weak<dyn ReclaimClient>);
        let reader = rcu.register();
        let g1 = reader.read_lock();
        for addr in 1..=4usize {
            d.defer(id, addr << 4);
        }
        assert_eq!(client.count(), 0);
        drop(g1);
        // A *new* critical section does not extend the old capture: the
        // pin sequence advanced, so the batch releases while pinned.
        let _g2 = reader.read_lock();
        d.advance();
        assert_eq!(client.count(), 4);
    }

    #[test]
    fn stalled_reader_is_ejected_and_garbage_stays_bounded() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let eject_after = Duration::from_millis(5);
        let d = domain(&rcu, 4, eject_after);
        let client = Arc::new(RecordingClient::default());
        let id = d.register_client(Arc::downgrade(&client) as Weak<dyn ReclaimClient>);
        let reader = rcu.register();
        let guard = reader.read_lock();
        for addr in 1..=32usize {
            d.defer(id, addr << 4);
        }
        assert_eq!(client.count(), 0, "blocked while the stall is young");
        // Past the threshold the reader is ejected and the batches
        // drain — while it is STILL pinned.
        std::thread::sleep(eject_after * 2);
        d.advance();
        assert_eq!(client.count(), 32);
        assert_eq!(d.deferred_in_domain(), 0);
        assert!(d.reclaim_stats().ejections >= 1);
        // The cooperative contract: the ejected reader must notice.
        assert!(!guard.validate(), "ejected reader still validates");
        drop(guard);
        // A fresh critical section validates again.
        let g = reader.read_lock();
        assert!(g.validate());
    }

    #[test]
    fn synchronize_drains_with_a_parked_reader_via_ejection() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let d = domain(&rcu, 8, Duration::from_millis(5));
        let client = Arc::new(RecordingClient::default());
        let id = d.register_client(Arc::downgrade(&client) as Weak<dyn ReclaimClient>);
        let reader = rcu.register();
        let _guard = reader.read_lock();
        for addr in 1..=20usize {
            d.defer(id, addr << 4);
        }
        // Blocks ~eject_after, then completes despite the pinned reader
        // — the epoch backend would hang here forever.
        d.synchronize();
        assert_eq!(client.count(), 20);
        assert_eq!(d.deferred_in_domain(), 0);
    }
}
