//! Application-benchmark emulations (paper §5.3): Postmark, Netperf
//! TCP_CRR, ApacheBench and pgbench.
//!
//! Each driver reproduces the *allocator-visible* behaviour of its
//! namesake — the slab caches it stresses, the mix of deferred vs
//! immediate frees (Figure 12), and the relationship between transactions
//! and object churn — on top of the simulated subsystems (`pbs-simfs`,
//! `pbs-simnet`). Every driver runs a fixed number of transactions, as in
//! the paper ("fixed number of transactions ... enables a fair comparison
//! of absolute numbers of the memory allocator attributes").

mod apache;
mod netperf;
mod pgbench;
mod postmark;
mod server;

pub use apache::run_apache;
pub use netperf::run_netperf;
pub use pgbench::run_pgbench;
pub use postmark::run_postmark;
pub use server::{run_server, ServerParams, ServerReport, ATTACKER_FRACTION};

use crate::report::AppComparison;
use crate::AllocatorKind;

/// Shared application-benchmark parameters.
#[derive(Debug, Clone)]
pub struct AppParams {
    /// Worker threads (benchmark "instances"/"clients").
    pub threads: usize,
    /// Transactions per thread.
    pub transactions_per_thread: u64,
    /// Per-thread file/connection pool size.
    pub pool_size: u64,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
}

impl Default for AppParams {
    fn default() -> Self {
        Self {
            threads: crate::microbench::num_threads(),
            transactions_per_thread: 20_000,
            pool_size: 100,
            seed: 0x5EED,
        }
    }
}

/// Runs one named benchmark on both allocators and pairs the results.
pub fn compare(name: &str, params: &AppParams) -> AppComparison {
    let run = |kind| match name {
        "postmark" => run_postmark(kind, params),
        "netperf" => run_netperf(kind, params),
        "apache" => run_apache(kind, params),
        "pgbench" => run_pgbench(kind, params),
        other => panic!("unknown benchmark {other}"),
    };
    AppComparison {
        name: name.to_owned(),
        slub: run(AllocatorKind::Slub),
        prudence: run(AllocatorKind::Prudence),
    }
}

/// The four paper benchmarks, in reporting order.
pub const APP_NAMES: [&str; 4] = ["postmark", "netperf", "apache", "pgbench"];
