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
//!
//! `--smoke` swaps the full-scale defaults for the CI-sized ones (5 000
//! connections, two shards, sub-second phases, same gates); every other
//! flag then applies on top of whichever defaults are in force. An
//! unknown flag, a missing value or a value that does not parse is a
//! usage error (exit 2), never a silently different run.

use pbs_workloads::apps::{run_server, ServerParams};
use pbs_workloads::AllocatorKind;

const USAGE: &str = "usage: server_bench [--smoke] [--connections N] [--shards N] [--seed N]
                    [--allocator slub|prudence|both] [--reclaim epoch|hp|hyaline]
                    [--baseline-ms N] [--storm-ms N] [--recovery-ms N]
                    [--no-stall] [--garbage-bound N]";

/// The value after `flag`, parsed; names both in the error.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("invalid value for {flag}: {raw:?}"))
}

fn parse(args: &[String]) -> Result<(Vec<AllocatorKind>, ServerParams), String> {
    let mut allocators = AllocatorKind::BOTH.to_vec();
    let mut params = if args.iter().any(|a| a == "--smoke") {
        ServerParams { connections: 5_000, ..ServerParams::smoke() }
    } else {
        ServerParams::full_scale()
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        match flag {
            "--smoke" => {}
            "--no-stall" => params.stalled_shard = false,
            "--connections" => params.connections = value(flag, args.next())?,
            "--shards" => params.shards = value(flag, args.next())?,
            "--seed" => params.seed = value(flag, args.next())?,
            "--baseline-ms" => params.baseline_ms = value(flag, args.next())?,
            "--storm-ms" => params.storm_ms = value(flag, args.next())?,
            "--recovery-ms" => params.recovery_ms = value(flag, args.next())?,
            "--garbage-bound" => params.garbage_bound = value(flag, args.next())?,
            "--reclaim" => params.reclaim = Some(value(flag, args.next())?),
            "--allocator" => {
                allocators = AllocatorKind::selection(&value::<String>(flag, args.next())?)?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if params.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok((allocators, params.scaled_for_population()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (allocators, params) = parse(&args).unwrap_or_else(|err| {
        eprintln!("server_bench: {err}\n{USAGE}");
        std::process::exit(2);
    });

    let mut failed = false;
    for kind in allocators {
        println!(
            "server scenario: {kind} × {} connections × {} shards (seed {}) ...",
            params.connections, params.shards, params.seed
        );
        let report = run_server(kind, &params);
        println!("  {}", report.render());
        for violation in &report.verdict.violations {
            println!("  VIOLATION: {violation}");
        }
        if !report.verdict.passed() {
            println!("  replay: {}", report.replay_command());
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbs_rcu::reclaim::ReclaimBackend;

    fn parse_line(line: &str) -> Result<(Vec<AllocatorKind>, ServerParams), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn replay_command_reproduces_the_parameters_of_a_run() {
        let line = "--smoke --connections 700 --shards 2 --seed 9 --allocator slub --reclaim epoch \
                    --no-stall --baseline-ms 30 --storm-ms 70 --recovery-ms 90 --garbage-bound 5000";
        let (kinds, params) = parse_line(line).unwrap();
        assert_eq!(kinds, [AllocatorKind::Slub]);
        let report = run_server(AllocatorKind::Slub, &params);
        let replay = report.replay_command();
        let (_, flags) = replay.split_once(" -- ").expect("cargo args, then server_bench args");
        assert_eq!(parse_line(flags), Ok((kinds, params)), "{replay}");
    }

    #[test]
    fn parse_builds_the_documented_bases() {
        let (kinds, full) = parse_line("").unwrap();
        assert_eq!(kinds, AllocatorKind::BOTH);
        assert_eq!(full, ServerParams::full_scale().scaled_for_population());
        let (_, smoke) = parse_line("--reclaim hp --smoke").unwrap();
        let want = ServerParams {
            connections: 5_000,
            reclaim: Some(ReclaimBackend::Hp),
            ..ServerParams::smoke()
        };
        assert_eq!(smoke, want);
    }

    #[test]
    fn parse_rejects_typos_instead_of_running_the_default() {
        for line in [
            "--smok", "--connections", "--connections many", "--connections -5", "--shards 0",
            "--seed x", "--allocator slab", "--allocator", "--reclaim", "--reclaim rcu",
            "--storm-ms 1.5", "--no-stal", "smoke", "--garbage-bound",
        ] {
            assert!(parse_line(line).is_err(), "accepted {line:?}");
        }
        for (line, offender) in [
            ("--smok", "--smok"),
            ("--seed x", "\"x\""),
            ("--allocator slab", "slab"),
            ("--smoke --reclaim", "--reclaim"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.contains(offender), "{line:?}: offending argument named: {err}");
        }
    }
}
