//! # pbs-ledger — the repository's one benchmark
//!
//! `ledger` runs four workloads against the shipped configuration of the
//! Prudence reproduction, checks their outputs against plain models, and
//! prints seven end-to-end metrics per workload plus a per-layer cost
//! ledger taken by a separate traced run. `BENCHMARK.json` at the root
//! of the repository is the contract: it names every workload and
//! metric, its unit and direction, and the bound by which an end-to-end
//! median may worsen before a change counts as a regression. The binary
//! embeds that file, so the names it prints cannot drift from it.
//!
//! This library holds what the binary, its `compare` subcommand and the
//! smoke test share: order statistics, the parsed schema, run metadata
//! and the on-disk report format. See `README.md` for the workload and
//! metric tables and how the bounds were calibrated.

pub mod compare;
pub mod report;
pub mod schema;
pub mod stats;

pub use report::{Check, MetricValue, RunMeta, WorkloadReport};
pub use schema::{MetricSpec, Schema};
