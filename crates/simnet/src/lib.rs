//! # pbs-simnet — connection/socket substrate
//!
//! A transport-stack stand-in whose allocator traffic matches what the
//! paper's Netperf TCP_CRR and ApacheBench workloads induce on the kernel
//! (§5.3):
//!
//! | operation | slab traffic |
//! |---|---|
//! | `connect` | `sock` + `filp` + `selinux` allocations, connection entry published for RCU lookup |
//! | `request_response` | transient `skbuff` allocations + immediate frees |
//! | `close` | **deferred** frees of the connection entry, `filp` and `selinux` blob (connection teardown is RCU-deferred in Linux) |
//! | `Epoll::add` / `Epoll::del` | `eventpoll_epi` allocation / **deferred** free (paper: "objects are deferred for freeing during the removal of the target file descriptor from epoll") |
//!
//! Like [`pbs-simfs`](../pbs_simfs/index.html), everything is parameterized
//! by a [`CacheFactory`] so the identical workload runs over SLUB or
//! Prudence, and every type keeps its caches private: mint them through a
//! [`CacheInventory`] to drain them or read their statistics.
//!
//! [`CacheFactory`]: pbs_alloc_api::CacheFactory
//! [`CacheInventory`]: pbs_alloc_api::CacheInventory
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use pbs_alloc_api::engine::EngineConfig;
//! use pbs_alloc_api::prudence::PrudenceFactory;
//! use pbs_alloc_api::CacheInventory;
//! use pbs_mem::PageAllocator;
//! use pbs_rcu::Rcu;
//! use pbs_simnet::SimNet;
//!
//! let rcu = Arc::new(Rcu::new());
//! let caches = CacheInventory::new(PrudenceFactory::new(
//!     EngineConfig::new(2),
//!     Arc::new(PageAllocator::new()),
//!     Arc::clone(&rcu),
//! ));
//! let net = SimNet::new(&caches);
//! let conn = net.connect()?;
//! net.request_response(conn, 1024)?;
//! net.close(conn)?;
//! caches.quiesce();
//! assert_eq!(caches.stats()["sock"].deferred_frees, 1);
//! # Ok::<(), pbs_simnet::NetError>(())
//! ```

mod epoll;
mod net;
mod shard;
mod wheel;

pub use epoll::Epoll;
pub use net::{ConnId, NetError, SimNet};
pub use shard::{NetShard, ShardConfig, ShardedNet, EPOLLIN};
pub use wheel::TimerWheel;
