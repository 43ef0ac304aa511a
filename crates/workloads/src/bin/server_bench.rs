//! server_bench — the sharded server scenario at a chosen scale.
//!
//! Runs [`pbs_workloads::apps::run_server`], prints the per-phase
//! degradation report, and exits non-zero if any run violates a
//! degradation gate — so the same binary is the CI smoke check
//! (`--smoke`) and the full-scale (~1M connections) run. Its numbers on
//! the repo's one benchmark sheet are the ledger's `workloads.server_*`
//! rows; this binary records nothing.
//!
//! Usage:
//!
//! ```text
//! server_bench [--smoke] [--connections N] [--shards N] [--seed N]
//!              [--allocator slub|prudence|both] [--reclaim epoch|hp|hyaline]
//!              [--baseline-ms N] [--storm-ms N] [--recovery-ms N]
//!              [--no-stall] [--garbage-bound N]
//! ```

use std::time::Duration;

use pbs_rcu::reclaim::ReclaimBackend;
use pbs_workloads::apps::{run_server, ServerParams};
use pbs_workloads::AllocatorKind;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut allocators = AllocatorKind::BOTH.to_vec();
    let mut params = ServerParams {
        shards: 8,
        connections: 1_000_000,
        baseline_ms: 2_000,
        storm_ms: 3_000,
        recovery_ms: 4_000,
        establish_timeout: Duration::from_secs(600),
        ..ServerParams::default()
    };
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| panic!("{what} needs a value"));
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--connections" => params.connections = next("--connections").parse().expect("count"),
            "--shards" => params.shards = next("--shards").parse().expect("count"),
            "--seed" => params.seed = next("--seed").parse().expect("seed"),
            "--baseline-ms" => params.baseline_ms = next("--baseline-ms").parse().expect("ms"),
            "--storm-ms" => params.storm_ms = next("--storm-ms").parse().expect("ms"),
            "--recovery-ms" => params.recovery_ms = next("--recovery-ms").parse().expect("ms"),
            "--garbage-bound" => {
                params.garbage_bound = next("--garbage-bound").parse().expect("count");
            }
            "--no-stall" => params.stalled_shard = false,
            "--allocator" => {
                allocators = match next("--allocator").as_str() {
                    "slub" => vec![AllocatorKind::Slub],
                    "prudence" => vec![AllocatorKind::Prudence],
                    "both" => AllocatorKind::BOTH.to_vec(),
                    other => panic!("unknown allocator {other:?}"),
                };
            }
            "--reclaim" => {
                params.reclaim =
                    Some(next("--reclaim").parse::<ReclaimBackend>().expect("backend"));
            }
            other => panic!("unexpected argument {other:?}"),
        }
    }

    if smoke {
        // CI-sized: small population, sub-second phases, same gates.
        params = ServerParams {
            connections: params.connections.min(5_000),
            shards: params.shards.min(2),
            seed: params.seed,
            reclaim: params.reclaim,
            stalled_shard: params.stalled_shard,
            ..ServerParams::smoke()
        };
    }
    params = params.scaled_for_population();

    let mut failed = false;
    for kind in allocators {
        println!(
            "server scenario: {kind} × {} connections × {} shards (seed {}) ...",
            params.connections, params.shards, params.seed
        );
        let report = run_server(kind, &params);
        println!("  {}", report.render());
        for violation in &report.violations {
            println!("  VIOLATION: {violation}");
        }
        if !report.passed() {
            println!("  replay: {}", report.replay_command());
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
