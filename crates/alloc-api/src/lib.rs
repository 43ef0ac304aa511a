//! # pbs-alloc-api — the two allocators of the Prudence reproduction
//!
//! Both allocators — the SLUB-style baseline ([`slub`]) and Prudence
//! ([`prudence`]) — are policies over one [`engine`] and implement the same
//! [`ObjectAllocator`] trait, so data structures, simulated subsystems and
//! benchmark drivers are written once and parameterized by allocator.
//!
//! The crate also provides:
//!
//! * [`CacheStats`] — the counters behind the paper's Figures 7–11
//!   (cache hits, object-cache churns, slab churns, peak slab usage, total
//!   fragmentation),
//! * [`SizingPolicy`] — SLUB-like heuristics for slab size, objects per
//!   slab and per-CPU object-cache size (paper §4.3: Prudence reuses the
//!   existing allocator heuristics),
//! * kmalloc-style size classes ([`SIZE_CLASSES`], [`class_index_for`]),
//! * [`CpuRegistry`] — stable per-thread "CPU slot" assignment standing in
//!   for kernel per-CPU data,
//! * [`engine`] — the generic [`SlabEngine`](engine::SlabEngine), with the
//!   shared kmalloc heap and cache factory.

#![deny(clippy::undocumented_unsafe_blocks)]

mod cpu;
pub mod engine;
mod factory;
mod policy {
    pub mod prudence;
    pub mod slub;
}
mod size_class;
mod sizing;
pub mod slab_layout;
mod slab_lists;
mod stats;
mod telemetry;
mod traits;

pub use cpu::{CpuId, CpuRegistry};
pub use factory::{CacheFactory, CacheInventory};
pub use policy::{prudence, slub};
pub use size_class::{class_index_for, SIZE_CLASSES};
pub use sizing::SizingPolicy;
pub use slab_layout::RawSlab;
pub use slab_lists::{ListKind, SlabLists};
pub use stats::{CacheStats, CacheStatsSnapshot};
pub use telemetry::{CacheTelemetry, TelemetrySnapshot};
pub use traits::{AllocError, ObjPtr, ObjectAllocator};

// Re-exported so allocators and harnesses name the fast-path engine
// types without a separate dependency edge.
pub use pbs_percpu::{
    default_engine as fastpath_default_engine, Engine as FastPathEngine, FastPathOverride,
    FastPathSnapshot,
};
