//! The epoch backend: the Linux `call_rcu` path, as the one producer of
//! callbacks there is.
//!
//! The paper's point is that the allocator, not the synchronization
//! layer, should own deferred frees; [`Rcu`] therefore exports only
//! grace-period state and `poll`, and the callback queue lives here, as
//! the way the SLUB control defers frees. Each defer is stamped with the
//! epoch, queued on one of [`RcuConfig::shards`](crate::RcuConfig::shards)
//! FIFO shards, and returned to its client by background reclaimers — the
//! throttled loop of the paper's §3: at most `blimit` per pass (escalating
//! past `qhimark`, or under memory pressure), one pass per
//! `batch_interval`. The result is the baseline's extended lifetimes and
//! bursty frees. The reclaimers start with the domain's first defer
//! (Prudence under epoch never defers here, so it runs none) and are
//! joined when the domain drops.
//!
//! Garbage is **unbounded** under a stalled reader — one pinned thread
//! wedges the epoch and with it every object deferred after the pin. That
//! is not a defect of the backend but the property the robust backends
//! (`hp`, `hyaline`) are measured against.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use super::{
    ClientId, ClientRegistry, ReclaimBackend, ReclaimClient, ReclaimStats, ReclamationDomain,
};
use crate::epoch::GpState;
use crate::Rcu;

/// One deferred address, stamped with the epoch it was queued at.
struct Entry {
    stamp: GpState,
    client: ClientId,
    addr: usize,
}

/// A FIFO of entries (stamps non-decreasing) owned by one reclaimer, with
/// the counts that make [`EpochDomain`]'s barrier exact.
#[derive(Default)]
struct Shard {
    queue: Mutex<VecDeque<Entry>>,
    /// Entries ever pushed; bumped under `queue`'s lock.
    queued: AtomicU64,
    /// Entries ever returned to their client, bumped after the delivery.
    /// One consumer per shard delivers in FIFO order, so `delivered >= n`
    /// proves the first `n` entries are back with their clients.
    delivered: AtomicU64,
}

impl Shard {
    /// Moves up to `limit` entries whose grace period completed at
    /// `epoch` into `out`; returns how many.
    fn pop_ready(&self, epoch: u64, limit: usize, out: &mut Vec<Entry>) -> u64 {
        let mut queue = self.queue.lock();
        let mut n = 0;
        while n < limit
            && queue
                .front()
                .is_some_and(|e| e.stamp.is_completed_at(epoch))
        {
            out.extend(queue.pop_front());
            n += 1;
        }
        n as u64
    }
}

/// The queue the domain and its reclaimer threads share.
struct Callbacks {
    rcu: Arc<Rcu>,
    clients: ClientRegistry,
    shards: Vec<Shard>,
    cursor: AtomicUsize,
    /// Stops the reclaimers (which are unparked to see it).
    shutdown: AtomicBool,
}

impl Callbacks {
    fn push(&self, client: ClientId, addr: usize) {
        let inner = self.rcu.inner();
        let stamp = inner.gp_state();
        let shard = &self.shards[self.cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        {
            let mut queue = shard.queue.lock();
            queue.push_back(Entry {
                stamp,
                client,
                addr,
            });
            shard.queued.fetch_add(1, Ordering::Relaxed);
        }
        inner.stats.record_enqueue();
    }

    /// Entries queued and not yet delivered. `delivered` is read first,
    /// with Acquire: every push it counts is then visible in `queued`.
    fn pending(&self) -> usize {
        let count = |s: &Shard| {
            let delivered = s.delivered.load(Ordering::Acquire);
            s.queued.load(Ordering::Relaxed) - delivered
        };
        self.shards.iter().map(count).sum::<u64>() as usize
    }

    /// The batch function: pops up to `limit` grace-period-complete
    /// entries from `shards`, in order, returns them to their clients and
    /// counts them. Returns how many were delivered.
    fn run_batch<'a>(&self, shards: impl IntoIterator<Item = &'a Shard>, limit: usize) -> usize {
        let inner = self.rcu.inner();
        let epoch = inner.epoch.load(Ordering::Acquire);
        let mut ready = Vec::new();
        let mut popped = Vec::new();
        for shard in shards {
            if ready.len() >= limit {
                break;
            }
            let n = shard.pop_ready(epoch, limit - ready.len(), &mut ready);
            if n > 0 {
                popped.push((shard, n));
            }
        }
        if ready.is_empty() {
            return 0;
        }
        let delivered = self
            .clients
            .deliver(ready.into_iter().map(|e| (e.client, e.addr)));
        // Counted before the Release below: a `barrier` that acquires the
        // delivery also sees it processed, so `callback_backlog` reads 0
        // once a barrier returns.
        inner.stats.record_processed(delivered as u64);
        for (shard, n) in popped {
            shard.delivered.fetch_add(n, Ordering::Release);
        }
        delivered
    }

    /// Body of reclaimer `worker`, which owns the shards with
    /// `index % reclaimer_threads == worker`. Each pass starts one shard
    /// later than the last, so a shard that always has ready entries
    /// cannot starve the others under `blimit`.
    fn reclaim_loop(&self, worker: usize) {
        let config = self.rcu.config();
        let workers = config.reclaimer_threads.max(1);
        let mut owned: Vec<&Shard> = self.shards.iter().skip(worker).step_by(workers).collect();
        while !self.shutdown.load(Ordering::SeqCst) {
            let mut limit = if self.rcu.inner().stats.backlog() > config.qhimark {
                config.blimit_max
            } else {
                config.blimit
            };
            // §3.5: expedite processing under memory pressure.
            if let Some(probe) = &config.pressure_probe {
                if probe() > config.pressure_threshold {
                    limit = limit.max(config.pressure_blimit);
                }
            }
            self.run_batch(owned.iter().copied(), limit);
            if !owned.is_empty() {
                owned.rotate_left(1);
            }
            // Pacing: even with work pending, the kernel's softirq yields
            // the CPU between batches. This is what throttles reclamation.
            std::thread::park_timeout(config.batch_interval);
        }
    }

    /// Blocks until every entry queued before the call has been returned
    /// to its client (`rcu_barrier`): each shard's delivered count must
    /// reach the queued count it had at entry. Later defers can neither
    /// satisfy nor extend the wait.
    fn barrier(&self) {
        let targets: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.queued.load(Ordering::Relaxed))
            .collect();
        for (shard, target) in self.shards.iter().zip(targets) {
            while shard.delivered.load(Ordering::Acquire) < target {
                self.rcu.inner().try_advance();
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

/// Epoch-based backend; see the module docs.
pub struct EpochDomain {
    callbacks: Arc<Callbacks>,
    /// The reclaimers, started by the first [`defer`](ReclamationDomain::defer).
    reclaimers: OnceLock<Vec<JoinHandle<()>>>,
}

impl EpochDomain {
    /// An epoch domain over `rcu`, throttled by `rcu`'s [`RcuConfig`](crate::RcuConfig).
    pub fn new(rcu: Arc<Rcu>) -> Self {
        // Symmetric with the robust backends; epoch protection needs no
        // domain cooperation, so `protects_backend(Epoch)` is true for
        // every guard regardless of this mark.
        rcu.attach_backend(ReclaimBackend::Epoch);
        let shards = (0..rcu.config().shards.max(1))
            .map(|_| Shard::default())
            .collect();
        Self {
            callbacks: Arc::new(Callbacks {
                rcu,
                clients: ClientRegistry::default(),
                shards,
                cursor: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
            }),
            reclaimers: OnceLock::new(),
        }
    }

    fn spawn_reclaimers(&self) -> Vec<JoinHandle<()>> {
        (0..self.callbacks.rcu.config().reclaimer_threads.max(1))
            .map(|worker| {
                let callbacks = Arc::clone(&self.callbacks);
                std::thread::Builder::new()
                    .name(format!("rcu-reclaim-{worker}"))
                    .spawn(move || callbacks.reclaim_loop(worker))
                    .expect("spawn rcu reclaimer")
            })
            .collect()
    }
}

impl ReclamationDomain for EpochDomain {
    fn backend(&self) -> ReclaimBackend {
        ReclaimBackend::Epoch
    }

    fn rcu(&self) -> &Arc<Rcu> {
        &self.callbacks.rcu
    }

    fn register_client(&self, client: Weak<dyn ReclaimClient>) -> ClientId {
        self.callbacks.clients.register(client)
    }

    fn defer(&self, client: ClientId, addr: usize) {
        self.reclaimers.get_or_init(|| self.spawn_reclaimers());
        self.callbacks.push(client, addr);
    }

    fn advance(&self) -> bool {
        let inner = self.callbacks.rcu.inner();
        let before = inner.epoch.load(Ordering::Acquire);
        inner.try_advance() > before
    }

    fn synchronize(&self) {
        // A grace period alone does not deliver the queued entries; the
        // trait promises every earlier defer is *returned*, which is the
        // barrier's job whenever anything is queued.
        if self.callbacks.pending() == 0 {
            self.callbacks.rcu.synchronize();
        } else {
            self.callbacks.barrier();
        }
    }

    fn synchronize_expedited(&self) {
        self.callbacks.rcu.synchronize_expedited();
        self.callbacks.barrier();
    }

    fn expedite(&self) -> bool {
        self.callbacks.rcu.expedite()
    }

    fn deferred_in_domain(&self) -> usize {
        self.callbacks.pending()
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        ReclaimStats {
            backend: self.backend().label().to_owned(),
            deferred_in_domain: self.callbacks.pending(),
            // Epoch-side injected stalls live in RcuStats; mirrored here
            // so the comparison matrix reads one struct per backend.
            injected_stalls: self.callbacks.rcu.stats().injected_gp_stalls,
            ..ReclaimStats::default()
        }
    }
}

impl Drop for EpochDomain {
    fn drop(&mut self) {
        let Some(reclaimers) = self.reclaimers.take() else {
            return; // never deferred: nothing queued, no thread
        };
        self.callbacks.shutdown.store(true, Ordering::SeqCst);
        let current = std::thread::current().id();
        for handle in reclaimers {
            handle.thread().unpark();
            // A delivery that drops the last handle on this domain runs
            // this Drop on a reclaimer itself; joining would self-deadlock,
            // so detach it (it sees the shutdown and exits).
            if handle.thread().id() != current {
                let _ = handle.join();
            }
        }
        // Best-effort drain of what grace periods still let through. If a
        // reader is still pinned we give up rather than hang (the entries
        // leak, which is memory-safe).
        let (callbacks, inner) = (&self.callbacks, self.callbacks.rcu.inner());
        for _ in 0..1024 {
            if callbacks.pending() == 0 {
                break;
            }
            let epoch = inner.try_advance();
            if callbacks.run_batch(&callbacks.shards, usize::MAX) == 0
                && epoch == inner.try_advance()
            {
                break;
            }
        }
    }
}

impl std::fmt::Debug for EpochDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochDomain")
            .field("backlog", &self.callbacks.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::RecordingClient;
    use super::*;
    use crate::RcuConfig;

    fn domain(config: RcuConfig) -> (Arc<Rcu>, EpochDomain, Arc<RecordingClient>, ClientId) {
        let rcu = Arc::new(Rcu::with_config(config));
        let domain = EpochDomain::new(Arc::clone(&rcu));
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(Arc::downgrade(&client) as Weak<dyn ReclaimClient>);
        (rcu, domain, client, id)
    }

    fn entry(stamp: u64) -> Entry {
        Entry {
            stamp: GpState(stamp),
            client: 0,
            addr: 0,
        }
    }

    #[test]
    fn shard_pop_respects_grace_period_and_limit() {
        let shard = Shard::default();
        shard.queue.lock().extend([entry(0), entry(5)]);
        let mut out = Vec::new();
        assert_eq!(shard.pop_ready(1, 10, &mut out), 0);
        assert_eq!(shard.pop_ready(2, 10, &mut out), 1);
        assert_eq!(shard.pop_ready(6, 10, &mut out), 0);
        assert_eq!(shard.pop_ready(7, 10, &mut out), 1);
        shard.queue.lock().extend((0..10).map(|_| entry(0)));
        assert_eq!(shard.pop_ready(2, 3, &mut out), 3);
        assert_eq!((shard.queue.lock().len(), out.len()), (7, 5));
    }

    #[test]
    fn defer_returns_addresses_after_a_grace_period() {
        let (rcu, domain, client, id) = domain(RcuConfig::eager());
        for addr in [0x1000usize, 0x2000, 0x3000] {
            domain.defer(id, addr);
        }
        domain.synchronize();
        assert_eq!(domain.deferred_in_domain(), 0);
        let mut got = client.reclaimed.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0x1000, 0x2000, 0x3000]);
        let stats = rcu.stats();
        assert_eq!(
            (stats.callbacks_enqueued, stats.callbacks_processed),
            (3, 3)
        );
        assert_eq!(stats.callback_backlog, 0);
        assert!(stats.max_callback_backlog >= 1);
        // Nothing queued: a barrier is one grace period, no wait.
        domain.synchronize_expedited();
    }

    #[test]
    fn stalled_reader_wedges_the_epoch_backend() {
        // The documented bug the robust backends bound: a pinned reader
        // blocks every defer issued after its pin, without limit.
        let (rcu, domain, client, id) = domain(RcuConfig::eager());
        let reader = rcu.register();
        let guard = reader.read_lock();
        for addr in 1..=64usize {
            domain.defer(id, addr << 4);
        }
        // A bounded eager drive cannot complete a grace period.
        assert!(!domain.expedite());
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(client.count(), 0, "reclaimed under a pinned reader");
        assert_eq!(domain.deferred_in_domain(), 64);
        assert_eq!(rcu.stats().callback_backlog, 64);
        drop(guard);
        domain.synchronize();
        assert_eq!(client.count(), 64);
    }

    #[test]
    fn dead_clients_drop_their_addresses() {
        let (_rcu, domain, client, id) = domain(RcuConfig::eager());
        domain.defer(id, 0xAB0);
        drop(client);
        domain.synchronize();
        assert_eq!(domain.deferred_in_domain(), 0);
    }

    #[test]
    fn drop_drains_pending_entries() {
        let (_rcu, domain, client, id) = domain(RcuConfig {
            batch_interval: Duration::from_secs(3600),
            ..RcuConfig::eager()
        });
        for addr in 1..=100usize {
            domain.defer(id, addr << 4);
        }
        drop(domain);
        assert_eq!(client.count(), 100);
    }

    #[test]
    fn pressure_probe_expedites_processing() {
        let pressured = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&pressured);
        // Severely throttled: 1 entry per 2 ms without pressure.
        let config = RcuConfig {
            blimit: 1,
            qhimark: usize::MAX,
            blimit_max: 1,
            batch_interval: Duration::from_millis(2),
            driver_interval: Duration::from_micros(50),
            reclaimer_threads: 1,
            shards: 4,
            pressure_threshold: 0.5,
            pressure_blimit: 10_000,
            ..RcuConfig::default()
        };
        let probe = move || {
            if flag.load(Ordering::Relaxed) {
                1.0
            } else {
                0.0
            }
        };
        let (_rcu, domain, client, id) = domain(config.with_pressure_probe(Arc::new(probe)));
        for addr in 1..=500usize {
            domain.defer(id, addr << 4);
        }
        std::thread::sleep(Duration::from_millis(40));
        let without_pressure = client.count();
        assert!(
            without_pressure < 100,
            "throttle should limit processing, got {without_pressure}"
        );
        pressured.store(true, Ordering::Relaxed);
        domain.synchronize();
        assert_eq!(client.count(), 500);
    }

    #[test]
    fn barrier_waits_for_older_entries_not_for_a_count() {
        // One reclaimer, two shards, one entry per 2 ms pass: a pass takes
        // its entry from the first shard with a ready one. `old` sits in
        // shard 1 while a churning thread keeps both shards fed, so
        // counting deliveries (any shard) would return early.
        let (_rcu, domain, client, id) = domain(RcuConfig {
            blimit: 1,
            qhimark: usize::MAX,
            blimit_max: 1,
            batch_interval: Duration::from_millis(2),
            reclaimer_threads: 1,
            shards: 2,
            ..RcuConfig::eager()
        });
        let (first, old) = (0x10usize, 0x20usize);
        domain.defer(id, first);
        domain.defer(id, old);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for addr in 1usize.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    domain.defer(id, 0x1000 + (addr << 4));
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
            domain.synchronize();
            let delivered = client.reclaimed.lock().clone();
            stop.store(true, Ordering::Relaxed);
            assert!(delivered.contains(&first), "first defer returned");
            assert!(
                delivered.contains(&old),
                "synchronize returned before an older defer"
            );
        });
    }
}
