//! Shard-aware net layer: per-reactor stacks, accept backpressure and
//! connection deadlines.
//!
//! A [`ShardedNet`] partitions the connection population across N
//! [`NetShard`]s, one per reactor thread. Each shard owns a private
//! [`SimNet`] + [`Epoll`] pair (so the connection table, epoll interest
//! table and their slab caches are never contended across reactors), a
//! bounded accept backlog (the listen queue: dials beyond capacity are
//! shed with [`NetError::Backlogged`] before any per-connection
//! allocation), and a [`TimerWheel`] for idle/slow-connection deadlines.
//!
//! The split of responsibilities with the application layer: this module
//! owns connection plumbing (listen queue, handshake, epoll registration,
//! deadline bookkeeping, teardown); the application owns policy (what to
//! do on expiry, when to shed load, retry budgets).

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use pbs_alloc_api::CacheFactory;
use pbs_fault::FaultInjector;
use pbs_rcu::ReadGuard;

use crate::wheel::TimerWheel;
use crate::{ConnId, Epoll, NetError, SimNet};

/// EPOLLIN-style interest mask every accepted connection registers.
pub const EPOLLIN: u32 = 0x1;

/// Sizing knobs for one shard. The defaults suit unit-test scale; the
/// server workload derives them from its target connection count.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Listen-queue capacity: dials beyond this are shed.
    pub backlog_cap: usize,
    /// Bucket count for the shard's connection table.
    pub conn_buckets: usize,
    /// Timer-wheel slots (granules per revolution).
    pub wheel_slots: usize,
    /// Timer-wheel ticks per slot.
    pub wheel_granularity: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            backlog_cap: 128,
            conn_buckets: 1024,
            wheel_slots: 64,
            wheel_granularity: 1,
        }
    }
}

/// One reactor shard: private stack, epoll instance, listen queue and
/// deadline wheel.
pub struct NetShard {
    index: usize,
    net: SimNet,
    epoll: Epoll,
    backlog: Mutex<VecDeque<u64>>,
    backlog_cap: usize,
    wheel: Mutex<TimerWheel>,
}

impl std::fmt::Debug for NetShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetShard")
            .field("index", &self.index)
            .field("connections", &self.net.connection_count())
            .field("backlog", &self.backlog.lock().len())
            .finish()
    }
}

impl NetShard {
    fn new(
        factory: &dyn CacheFactory,
        index: usize,
        config: ShardConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        Self {
            index,
            net: SimNet::with_config(factory, config.conn_buckets, faults),
            epoll: Epoll::new(factory),
            backlog: Mutex::new(VecDeque::with_capacity(config.backlog_cap)),
            backlog_cap: config.backlog_cap.max(1),
            wheel: Mutex::new(TimerWheel::new(
                config.wheel_slots.max(1),
                config.wheel_granularity.max(1),
            )),
        }
    }

    /// This shard's index within its [`ShardedNet`].
    pub fn index(&self) -> usize {
        self.index
    }

    /// The shard's private transport stack.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The shard's private epoll instance.
    pub fn epoll(&self) -> &Epoll {
        &self.epoll
    }

    /// Enqueues a connection attempt (a SYN arriving at the listener).
    /// `cookie` is an opaque caller tag handed back by [`accept`](Self::accept)
    /// (typically a traffic-class discriminator).
    ///
    /// # Errors
    ///
    /// [`NetError::Backlogged`] when the listen queue is full — the
    /// backpressure signal; nothing was allocated.
    pub fn dial(&self, cookie: u64) -> Result<(), NetError> {
        let mut backlog = self.backlog.lock();
        if backlog.len() >= self.backlog_cap {
            return Err(NetError::Backlogged);
        }
        backlog.push_back(cookie);
        Ok(())
    }

    /// Accepts one pending dial: completes the handshake (which consults
    /// the `net.accept` fault site and allocates the connection's sock /
    /// filp / selinux objects) and registers EPOLLIN interest.
    ///
    /// Returns `None` when the backlog is empty, `Some(Err(..))` when the
    /// handshake was refused or allocation failed (the dial is consumed
    /// either way, as a dropped SYN would be).
    pub fn accept(&self) -> Option<Result<(ConnId, u64), NetError>> {
        let cookie = self.backlog.lock().pop_front()?;
        Some(self.complete_accept(cookie))
    }

    fn complete_accept(&self, cookie: u64) -> Result<(ConnId, u64), NetError> {
        let conn = self.net.connect()?;
        if let Err(e) = self.epoll.add(conn.0, EPOLLIN) {
            // Epi allocation failed: tear the half-accepted connection
            // back down so nothing leaks past the error.
            let _ = self.net.close(conn);
            return Err(e.into());
        }
        Ok((conn, cookie))
    }

    /// Pending dials in the listen queue.
    pub fn backlog_len(&self) -> usize {
        self.backlog.lock().len()
    }

    /// Sheds one pending dial without completing the handshake (the
    /// load-shedding path under hard pressure: the SYN is dropped and no
    /// per-connection memory is touched). Returns the dial's cookie.
    pub fn shed_dial(&self) -> Option<u64> {
        self.backlog.lock().pop_front()
    }

    /// Arms (or refreshes — see [`TimerWheel`] on lazy cancellation) the
    /// deadline for `conn` at absolute tick `deadline`.
    pub fn arm_deadline(&self, conn: ConnId, deadline: u64) {
        self.wheel.lock().arm(conn.0, deadline);
    }

    /// Advances the shard's deadline wheel to `now`, appending expired
    /// `(conn, deadline)` pairs to `expired`. The caller drops pairs whose
    /// deadline it has since refreshed.
    pub fn poll_deadlines(&self, now: u64, expired: &mut Vec<(u64, u64)>) {
        self.wheel.lock().advance(now, expired);
    }

    /// Closes `conn`: drops epoll interest (deferred epi free) and tears
    /// the connection down (deferred sock/filp/selinux frees).
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] if the connection is unknown (e.g.
    /// already evicted by a deadline).
    pub fn close(&self, conn: ConnId) -> Result<(), NetError> {
        self.epoll.del(conn.0);
        self.net.close(conn)
    }

    /// Live connections on this shard.
    pub fn connection_count(&self) -> usize {
        self.net.connection_count()
    }

    /// Whether `conn` is established, under an RCU guard.
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain.
    pub fn is_established(&self, guard: &ReadGuard<'_>, conn: ConnId) -> bool {
        self.net.is_established(guard, conn)
    }
}

/// N reactor shards over one cache factory.
pub struct ShardedNet {
    shards: Vec<NetShard>,
}

impl std::fmt::Debug for ShardedNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedNet")
            .field("shards", &self.shards.len())
            .field("connections", &self.connection_count())
            .finish()
    }
}

impl ShardedNet {
    /// Creates `nshards` shards, each with its own stack built from
    /// `factory` and (optionally) consulting `faults`.
    ///
    /// # Panics
    ///
    /// Panics if `nshards` is zero.
    pub fn new(
        factory: &dyn CacheFactory,
        nshards: usize,
        config: ShardConfig,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        assert!(nshards > 0, "need at least one shard");
        Self {
            shards: (0..nshards)
                .map(|i| NetShard::new(factory, i, config, faults.clone()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether there are no shards (never true — construction requires at
    /// least one).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn shard(&self, index: usize) -> &NetShard {
        &self.shards[index]
    }

    /// Routes a flow key to its shard (stable hash-mod placement).
    pub fn route(&self, key: u64) -> &NetShard {
        // Fibonacci hash: spreads sequential keys across shards.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// All shards, for reactor spawning.
    pub fn shards(&self) -> &[NetShard] {
        &self.shards
    }

    /// Live connections across all shards.
    pub fn connection_count(&self) -> usize {
        self.shards.iter().map(|s| s.connection_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::CacheInventory;
    use pbs_fault::{site, Schedule};
    use pbs_mem::PageAllocator;
    use pbs_rcu::{Rcu, RcuConfig};
    use pbs_slub::SlubFactory;
    use prudence::PrudenceFactory;

    fn rcu() -> Arc<Rcu> {
        Arc::new(Rcu::with_config(RcuConfig::eager()))
    }

    fn prudence_factory(rcu: &Arc<Rcu>) -> CacheInventory {
        CacheInventory::new(PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::new(PageAllocator::new()),
            Arc::clone(rcu),
        ))
    }

    #[test]
    fn dial_accept_close_roundtrip() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        let net = ShardedNet::new(&factory, 2, ShardConfig::default(), None);
        let shard = net.route(42);
        shard.dial(7).unwrap();
        let (conn, cookie) = shard.accept().unwrap().unwrap();
        assert_eq!(cookie, 7);
        let t = rcu.register();
        let g = t.read_lock();
        assert!(shard.is_established(&g, conn));
        assert_eq!(shard.epoll().interest(&g, conn.0), Some(EPOLLIN));
        drop(g);
        shard.close(conn).unwrap();
        assert_eq!(net.connection_count(), 0);
        factory.quiesce();
    }

    #[test]
    fn backlog_overflow_sheds_before_allocating() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        let config = ShardConfig {
            backlog_cap: 4,
            ..ShardConfig::default()
        };
        let net = ShardedNet::new(&factory, 1, config, None);
        let shard = net.shard(0);
        for i in 0..4 {
            shard.dial(i).unwrap();
        }
        assert_eq!(shard.dial(99), Err(NetError::Backlogged));
        assert_eq!(shard.backlog_len(), 4);
        // Shedding happened at the listen queue: no slab traffic yet.
        for (name, s) in factory.stats() {
            assert_eq!(s.alloc_requests, 0, "{name} allocated during dial");
        }
        while shard.accept().is_some() {}
        assert_eq!(shard.connection_count(), 4);
        assert_eq!(shard.backlog_len(), 0);
    }

    #[test]
    fn deadline_eviction_through_wheel() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        let net = ShardedNet::new(&factory, 1, ShardConfig::default(), None);
        let shard = net.shard(0);
        shard.dial(0).unwrap();
        shard.dial(0).unwrap();
        let (slow, _) = shard.accept().unwrap().unwrap();
        let (fast, _) = shard.accept().unwrap().unwrap();
        shard.arm_deadline(slow, 10);
        shard.arm_deadline(fast, 1000);
        let mut expired = Vec::new();
        shard.poll_deadlines(50, &mut expired);
        assert_eq!(expired, vec![(slow.0, 10)]);
        shard.close(slow).unwrap();
        assert_eq!(shard.connection_count(), 1);
        shard.close(fast).unwrap();
        factory.quiesce();
    }

    /// Epoll interest can be registered for a connection that has already
    /// been torn down (the fd was reused or the registration raced close):
    /// the epi entry exists, the connection lookup misses, and removal
    /// still defers exactly one epi free.
    #[test]
    fn epoll_add_of_closed_connection_is_orphan_interest() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        let net = ShardedNet::new(&factory, 1, ShardConfig::default(), None);
        let shard = net.shard(0);
        shard.dial(0).unwrap();
        let (conn, _) = shard.accept().unwrap().unwrap();
        shard.close(conn).unwrap();
        // Late registration after close.
        shard.epoll().add(conn.0, EPOLLIN).unwrap();
        let t = rcu.register();
        let g = t.read_lock();
        assert!(!shard.is_established(&g, conn));
        assert_eq!(shard.epoll().interest(&g, conn.0), Some(EPOLLIN));
        drop(g);
        assert!(shard.epoll().del(conn.0));
        factory.quiesce();
        // One epi deferred by close()'s del, one by the orphan's del.
        assert_eq!(factory.stats()["eventpoll_epi"].deferred_frees, 2);
        assert_eq!(factory.stats()["eventpoll_epi"].live_objects, 0);
    }

    /// Readiness delivered after close: a reader that looked up interest
    /// before the close may act on it after — the connection lookup must
    /// miss (no use-after-free, no resurrection) while the guard keeps the
    /// epi entry readable.
    #[test]
    fn readiness_after_close_misses_connection() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        let net = ShardedNet::new(&factory, 1, ShardConfig::default(), None);
        let shard = net.shard(0);
        shard.dial(0).unwrap();
        let (conn, _) = shard.accept().unwrap().unwrap();
        let t = rcu.register();
        let g = t.read_lock();
        let mask = shard.epoll().interest(&g, conn.0);
        assert_eq!(mask, Some(EPOLLIN));
        // Event is "in flight": the connection closes underneath it.
        shard.close(conn).unwrap();
        // The stale readiness must not find the connection...
        assert!(!shard.is_established(&g, conn));
        // ...and the pre-close interest value stays readable under the
        // same guard (the epi free was deferred, not immediate).
        assert_eq!(mask, Some(EPOLLIN));
        drop(g);
        // Acting on stale readiness surfaces NotConnected, not a panic.
        assert_eq!(shard.close(conn), Err(NetError::NotConnected));
        factory.quiesce();
        assert_eq!(factory.stats()["eventpoll_epi"].live_objects, 0);
    }

    fn churn_under_accept_faults(factory: &CacheInventory, rcu: &Arc<Rcu>) {
        let faults = Arc::new(FaultInjector::new(0xACCE97));
        faults.schedule(site::NET_ACCEPT, Schedule::Probability(0.2));
        let net = Arc::new(ShardedNet::new(
            factory,
            2,
            ShardConfig::default(),
            Some(Arc::clone(&faults)),
        ));
        let refused = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let net = &net;
                let rcu = Arc::clone(rcu);
                let refused = &refused;
                scope.spawn(move || {
                    let t = rcu.register();
                    for i in 0..300u64 {
                        let shard = net.route(worker * 1000 + i);
                        if shard.dial(worker).is_err() {
                            continue;
                        }
                        match shard.accept() {
                            Some(Ok((conn, _))) => {
                                let g = t.read_lock();
                                assert!(shard.is_established(&g, conn));
                                drop(g);
                                shard.close(conn).unwrap();
                            }
                            Some(Err(NetError::Refused)) => {
                                refused.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            Some(Err(e)) => panic!("unexpected accept error: {e}"),
                            // Another worker drained the dial we enqueued.
                            None => {}
                        }
                    }
                });
            }
        });
        assert!(
            refused.load(std::sync::atomic::Ordering::Relaxed) > 0,
            "p=0.2 over 1200 accepts should refuse some"
        );
        assert_eq!(net.connection_count(), 0);
        factory.quiesce();
        for (name, s) in factory.stats() {
            assert_eq!(s.live_objects, 0, "cache {name} leaked: {s:?}");
        }
    }

    #[test]
    fn connect_close_churn_with_accept_faults_prudence() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        churn_under_accept_faults(&factory, &rcu);
    }

    #[test]
    fn connect_close_churn_with_accept_faults_slub() {
        let rcu = rcu();
        let config = EngineConfig::new(2);
        let factory = CacheInventory::new(SlubFactory::new(
            config,
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        ));
        churn_under_accept_faults(&factory, &rcu);
    }

    #[test]
    fn read_stall_fault_surfaces_would_block() {
        let rcu = rcu();
        let factory = prudence_factory(&rcu);
        let faults = Arc::new(FaultInjector::new(1));
        faults.schedule(site::NET_READ_STALL, Schedule::EveryKth(2));
        let net = ShardedNet::new(&factory, 1, ShardConfig::default(), Some(faults));
        let shard = net.shard(0);
        shard.dial(0).unwrap();
        let (conn, _) = shard.accept().unwrap().unwrap();
        let mut stalled = 0;
        for _ in 0..10 {
            match shard.net().request_response(conn, 64) {
                Ok(()) => {}
                Err(NetError::WouldBlock) => stalled += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert_eq!(stalled, 5, "every 2nd read stalls");
        // The stalled connection is still open — slowloris pins state.
        assert_eq!(shard.connection_count(), 1);
        shard.close(conn).unwrap();
        factory.quiesce();
    }
}
