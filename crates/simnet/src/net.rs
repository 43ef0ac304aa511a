//! Connection lifecycle and request/response traffic.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pbs_alloc_api::{AllocError, CacheFactory, ObjPtr, ObjectAllocator};
use pbs_fault::{site, FaultInjector};
use pbs_rcu::ReadGuard;
use pbs_structs::RcuHashMap;

/// Connection identifier (the 4-tuple stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConnId(pub u64);

/// Errors returned by [`SimNet`] operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The connection does not exist (already closed).
    NotConnected,
    /// The allocator ran out of memory.
    NoMemory,
    /// The handshake was refused (injected `net.accept` fault — a dropped
    /// SYN). No slab traffic happened; the caller may retry.
    Refused,
    /// The peer stopped sending mid-request (injected `net.read_stall`
    /// fault — slowloris). The connection stays open and keeps pinning its
    /// server-side state until a deadline evicts it.
    WouldBlock,
    /// A shard's accept backlog is full; the connection attempt is shed at
    /// the listen queue, before any per-connection allocation.
    Backlogged,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::NotConnected => write!(f, "connection not established"),
            NetError::NoMemory => write!(f, "out of memory"),
            NetError::Refused => write!(f, "connection refused (injected accept fault)"),
            NetError::WouldBlock => write!(f, "read would block (peer stalled)"),
            NetError::Backlogged => write!(f, "accept backlog full"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<AllocError> for NetError {
    fn from(_: AllocError) -> Self {
        NetError::NoMemory
    }
}

/// Per-connection metadata (socket fd object + security blob pointers).
#[derive(Debug, Clone, Copy)]
struct ConnMeta {
    filp: ObjPtr,
    selinux: ObjPtr,
}

/// Object sizes matching the Linux slab caches involved in TCP
/// connect/close.
const SOCK_SIZE: usize = 512;
const FILP_SIZE: usize = 256;
const SELINUX_SIZE: usize = 64;
const SKB_SIZE: usize = 256;

/// The simulated transport stack; see the [crate docs](crate) for the
/// traffic mapping and an example.
pub struct SimNet {
    /// Established-connections table; nodes live in the `sock` cache.
    conns: RcuHashMap<u64, ConnMeta>,
    sock_cache: Arc<dyn ObjectAllocator>,
    filp_cache: Arc<dyn ObjectAllocator>,
    selinux_cache: Arc<dyn ObjectAllocator>,
    skb_cache: Arc<dyn ObjectAllocator>,
    next_conn: AtomicU64,
    faults: Option<Arc<FaultInjector>>,
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("connections", &self.conns.len())
            .finish()
    }
}

impl SimNet {
    /// Creates a stack whose slab caches come from `factory`.
    pub fn new(factory: &dyn CacheFactory) -> Self {
        Self::with_config(factory, 4096, None)
    }

    /// Creates a stack with an explicit connection-table bucket count and
    /// an optional fault injector. Harnesses size `conn_buckets` to the
    /// expected live-connection population (the table chains beyond it);
    /// the injector arms the `net.accept` and `net.read_stall` sites.
    pub fn with_config(
        factory: &dyn CacheFactory,
        conn_buckets: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> Self {
        let sock_cache = factory.create_cache("sock", SOCK_SIZE);
        Self {
            conns: RcuHashMap::new(Arc::clone(&sock_cache), conn_buckets.max(1)),
            sock_cache,
            filp_cache: factory.create_cache("filp", FILP_SIZE),
            selinux_cache: factory.create_cache("selinux", SELINUX_SIZE),
            skb_cache: factory.create_cache("skbuff", SKB_SIZE),
            next_conn: AtomicU64::new(1),
            faults,
        }
    }

    /// Establishes a connection: allocates the socket entry, fd object and
    /// security blob, publishing the entry for RCU lookup.
    ///
    /// # Errors
    ///
    /// [`NetError::NoMemory`] on allocator exhaustion, or
    /// [`NetError::Refused`] when an armed `net.accept` fault drops the
    /// handshake (before any slab traffic).
    pub fn connect(&self) -> Result<ConnId, NetError> {
        if let Some(faults) = &self.faults {
            if faults.should_fail(site::NET_ACCEPT) {
                return Err(NetError::Refused);
            }
        }
        let id = ConnId(self.next_conn.fetch_add(1, Ordering::Relaxed));
        let filp = self.filp_cache.allocate()?;
        let selinux = match self.selinux_cache.allocate() {
            Ok(selinux) => selinux,
            Err(err) => {
                // SAFETY: just allocated, never published.
                unsafe { self.filp_cache.free(filp) };
                return Err(err.into());
            }
        };
        // SAFETY: fresh exclusive objects of sufficient size.
        unsafe {
            filp.as_ptr().cast::<u64>().write(id.0);
            selinux.as_ptr().cast::<u64>().write(id.0);
        }
        if let Err(err) = self.conns.insert(id.0, ConnMeta { filp, selinux }) {
            // SAFETY: the insert failed, so neither object was published.
            unsafe {
                self.filp_cache.free(filp);
                self.selinux_cache.free(selinux);
            }
            return Err(err.into());
        }
        Ok(id)
    }

    /// One request/response exchange of `bytes` each way: allocates and
    /// immediately frees `skbuff` buffers (the non-deferred traffic in the
    /// paper's Figure 12 mix).
    ///
    /// # Errors
    ///
    /// [`NetError::NoMemory`] on allocator exhaustion, or
    /// [`NetError::WouldBlock`] when an armed `net.read_stall` fault
    /// models a peer that stops sending mid-request (the connection stays
    /// open; the caller decides whether to wait or evict). The connection
    /// is not validated per message (as in a real stack, the caller owns
    /// the established socket).
    pub fn request_response(&self, _conn: ConnId, bytes: usize) -> Result<(), NetError> {
        if let Some(faults) = &self.faults {
            if faults.should_fail(site::NET_READ_STALL) {
                return Err(NetError::WouldBlock);
            }
        }
        for _direction in 0..2 {
            let mut remaining = bytes.max(1);
            while remaining > 0 {
                let chunk = remaining.min(SKB_SIZE);
                let skb = self.skb_cache.allocate()?;
                // SAFETY: fresh exclusive object of SKB_SIZE bytes.
                unsafe {
                    std::ptr::write_bytes(skb.as_ptr(), 0x42, chunk);
                    self.skb_cache.free(skb);
                }
                remaining -= chunk;
            }
        }
        Ok(())
    }

    /// Looks up a connection under an RCU guard (the ESTABLISHED-table
    /// lookup every incoming segment performs).
    ///
    /// # Panics
    ///
    /// Panics if `guard` belongs to a different RCU domain.
    pub fn is_established(&self, guard: &ReadGuard<'_>, conn: ConnId) -> bool {
        self.conns.get(guard, &conn.0).is_some()
    }

    /// Tears down a connection: the socket entry, fd object and security
    /// blob are all deferred-freed, as in kernel connection teardown.
    ///
    /// # Errors
    ///
    /// [`NetError::NotConnected`] if the connection is unknown.
    pub fn close(&self, conn: ConnId) -> Result<(), NetError> {
        let meta = self.conns.remove(&conn.0).ok_or(NetError::NotConnected)?;
        // SAFETY: unlinked above; pre-existing RCU readers may still look.
        unsafe {
            self.filp_cache.free_deferred(meta.filp);
            self.selinux_cache.free_deferred(meta.selinux);
        }
        Ok(())
    }

    /// Connections currently established.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }
}

impl Drop for SimNet {
    fn drop(&mut self) {
        // Free fd objects and blobs of still-open connections.
        let mut metas = Vec::new();
        {
            let rcu = self.sock_cache.rcu().clone();
            let t = rcu.register();
            let g = t.read_lock();
            self.conns.for_each(&g, |_, meta| metas.push(*meta));
        }
        for meta in metas {
            // SAFETY: exclusive access at drop; each object freed once.
            unsafe {
                self.filp_cache.free(meta.filp);
                self.selinux_cache.free(meta.selinux);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_alloc_api::engine::EngineConfig;
    use pbs_alloc_api::prudence::PrudenceFactory;
    use pbs_alloc_api::slub::SlubFactory;
    use pbs_alloc_api::CacheInventory;
    use pbs_mem::PageAllocator;
    use pbs_rcu::{Rcu, RcuConfig};

    fn prudence_net() -> (Arc<Rcu>, CacheInventory, SimNet) {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let caches = CacheInventory::new(PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        ));
        let net = SimNet::new(&caches);
        (rcu, caches, net)
    }

    #[test]
    fn connect_alloc_failure_paths_do_not_leak() {
        // Heavy injected grow faults make connect() fail at every interior
        // allocation (filp, selinux, sock node) over enough attempts; any
        // partially-built connection must be rolled back, not leaked.
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let faults = Arc::new(FaultInjector::new(7));
        faults.schedule(site::SLAB_GROW, pbs_fault::Schedule::Probability(0.5));
        let pages = pbs_mem::PageAllocator::builder()
            .fault_injector(Arc::clone(&faults))
            .build();
        let caches = CacheInventory::new(PrudenceFactory::new(
            EngineConfig::new(2),
            Arc::new(pages),
            Arc::clone(&rcu),
        ));
        let net = SimNet::with_config(&caches, 64, Some(Arc::clone(&faults)));
        let mut failures = 0usize;
        let mut open = Vec::new();
        for _ in 0..400 {
            match net.connect() {
                Ok(conn) => open.push(conn),
                Err(NetError::NoMemory) => failures += 1,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(failures > 0, "p=0.5 grow faults never failed a connect");
        for conn in open {
            net.close(conn).unwrap();
        }
        caches.quiesce();
        for (name, s) in caches.stats() {
            assert_eq!(s.live_objects, 0, "cache {name} leaked: {s:?}");
        }
    }

    #[test]
    fn tcp_crr_cycle() {
        let (rcu, caches, net) = prudence_net();
        let t = rcu.register();
        let conn = net.connect().unwrap();
        let g = t.read_lock();
        assert!(net.is_established(&g, conn));
        drop(g);
        net.request_response(conn, 1000).unwrap();
        net.close(conn).unwrap();
        assert_eq!(net.close(conn), Err(NetError::NotConnected));
        let g = t.read_lock();
        assert!(!net.is_established(&g, conn));
        drop(g);
        caches.quiesce();
        for (name, s) in caches.stats() {
            assert_eq!(s.live_objects, 0, "cache {name} leaked: {s:?}");
        }
    }

    #[test]
    fn teardown_defers_three_caches() {
        let (_rcu, caches, net) = prudence_net();
        for _ in 0..20 {
            let c = net.connect().unwrap();
            net.request_response(c, 256).unwrap();
            net.close(c).unwrap();
        }
        caches.quiesce();
        let stats = caches.stats();
        assert_eq!(stats["sock"].deferred_frees, 20);
        assert_eq!(stats["filp"].deferred_frees, 20);
        assert_eq!(stats["selinux"].deferred_frees, 20);
        assert_eq!(stats["skbuff"].deferred_frees, 0);
        assert!(stats["skbuff"].frees >= 40, "two directions per exchange");
    }

    #[test]
    fn works_on_slub_too() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let config = EngineConfig::new(2);
        let caches = CacheInventory::new(SlubFactory::new(
            config,
            Arc::new(PageAllocator::new()),
            Arc::clone(&rcu),
        ));
        let net = SimNet::new(&caches);
        let c = net.connect().unwrap();
        net.request_response(c, 512).unwrap();
        net.close(c).unwrap();
        caches.quiesce();
        assert_eq!(net.connection_count(), 0);
    }

    #[test]
    fn concurrent_connection_churn() {
        let (_rcu, caches, net) = prudence_net();
        let net = Arc::new(net);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let net = Arc::clone(&net);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let c = net.connect().unwrap();
                        net.request_response(c, 128).unwrap();
                        net.close(c).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(net.connection_count(), 0);
        caches.quiesce();
    }

    #[test]
    fn drop_with_open_connections_does_not_leak() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let pages = Arc::new(PageAllocator::new());
        {
            let caches = CacheInventory::new(PrudenceFactory::new(
                EngineConfig::new(1),
                Arc::clone(&pages),
                Arc::clone(&rcu),
            ));
            let net = SimNet::new(&caches);
            let _c1 = net.connect().unwrap();
            let _c2 = net.connect().unwrap();
            caches.quiesce();
        }
        assert_eq!(pages.used_bytes(), 0);
    }
}
