//! # pbs-workloads — benchmark drivers regenerating the paper's evaluation
//!
//! One module per experiment in *Prudent Memory Reclamation in
//! Procrastination-Based Synchronization* (ASPLOS '16):
//!
//! | module | paper result |
//! |---|---|
//! | [`alloc_cost`] | §3.3 — refill ≈ 4× and grow ≈ 14× the cost of a cache hit |
//! | [`endurance`] | Figure 3 — SLUB+RCU memory growth → OOM vs Prudence equilibrium |
//! | [`microbench`] | Figure 6 — kmalloc/kfree_deferred pairs per second by object size |
//! | [`apps`] | Figures 7–13 — Postmark / Netperf / Apache / PostgreSQL emulations |
//! | [`tree_churn`] | extension: §3.1 multi-deferral amplification on an RCU tree |
//! | [`chaos`] | extension: fault-injected churn asserting OOM/stall robustness invariants |
//! | [`hardened_bed`], [`RunVerdict`] | the bed and the verdict the gating runs (chaos, the server scenario) share |
//! | [`figures`] | orchestration + paper-style table rendering |
//!
//! Every driver runs unchanged over both allocators via [`Testbed`], so a
//! comparison is always like-for-like: same page allocator limits, same
//! RCU domain parameters, same sizing heuristics.

pub mod alloc_cost;
pub mod apps;
pub mod chaos;
pub mod doctor;
pub mod endurance;
pub mod figures;
mod harness;
pub mod microbench;
mod report;
pub mod telemetry_export;
mod testbed;
pub mod tree_churn;

pub use harness::{hardened_bed, RunVerdict};
pub use report::{AppComparison, AppResult, CacheComparison};
pub use testbed::{AllocatorKind, Testbed};
