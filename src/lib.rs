//! # prudence-repro — facade crate
//!
//! Re-exports the building blocks of the Prudence (ASPLOS '16) reproduction
//! so examples and integration tests can use one import path.
//!
//! * [`fault`] — deterministic fault injection for OOM/stall paths
//! * [`mem`] — page allocator substrate
//! * [`rcu`] — epoch-based RCU synchronization
//! * [`alloc_api`] — shared allocator traits and statistics
//! * [`slub`] — baseline SLUB-style allocator
//! * [`prudence`] — the Prudence allocator (the paper's contribution)
//! * [`structs`] — RCU-protected data structures
//! * [`simfs`] / [`simnet`] — simulated kernel subsystems
//! * [`workloads`] — benchmark drivers regenerating the paper's figures

pub use pbs_alloc_api as alloc_api;
pub use pbs_alloc_api::{prudence, slub};
pub use pbs_fault as fault;
pub use pbs_mem as mem;
pub use pbs_rcu as rcu;
pub use pbs_simfs as simfs;
pub use pbs_simnet as simnet;
pub use pbs_structs as structs;
pub use pbs_workloads as workloads;
