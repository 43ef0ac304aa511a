//! Chaos runner: fault-injected churn over both allocators with fixed
//! seeds, exiting non-zero if any robustness invariant is violated.
//!
//! ```text
//! chaos [--scenario mixed|stalled-reader|oom-storm|fastpath-flap|server-storm|all]
//!       [--seed N | --seeds 1,2,3] [--allocator slub|prudence|both]
//!       [--reclaim epoch|hp|hyaline] [--garbage-bound N]
//!       [--duration SECS] [--threads N] [--ops N] [--keys N]
//!       [--limit-mb N] [--grow-p P] [--stall-p P] [--connections N]
//!       [--json] [--doctor-smoke]
//! ```
//!
//! `--reclaim` pins the reclamation backend; without it the run honours
//! `PBS_RECLAIM`, so the CI matrix drives the whole binary through one
//! environment variable.
//!
//! Every failing report prints a one-line replay command (seed, scenario,
//! allocator and every non-default parameter) so a red CI run can be
//! reproduced directly. An unknown flag, a missing value or a value that
//! does not parse is a usage error (exit 2), never a silently different
//! run.
//!
//! The process forces the RCU membarrier fallback before any domain is
//! built, so every grace period in the run also exercises the fallback
//! fence protocol (the unlucky-kernel path CI would otherwise never take).

use std::time::Duration;

use pbs_workloads::chaos::{run_chaos, ChaosParams, ChaosScenario};
use pbs_workloads::AllocatorKind;

const USAGE: &str = "usage: chaos [--scenario mixed|stalled-reader|oom-storm|fastpath-flap|server-storm|all]
             [--seed N | --seeds 1,2,3] [--allocator slub|prudence|both]
             [--reclaim epoch|hp|hyaline] [--garbage-bound N] [--duration SECS]
             [--threads N] [--ops N] [--keys N] [--limit-mb N] [--grow-p P]
             [--stall-p P] [--connections N] [--json] [--doctor-smoke]";

struct Cli {
    scenarios: Vec<ChaosScenario>,
    seeds: Vec<u64>,
    kinds: Vec<AllocatorKind>,
    json: bool,
    /// Spin up the live doctor endpoint inside every run and poll it
    /// mid-chaos; under stalled-reader the smoke also insists /doctor
    /// names the staller.
    doctor_smoke: bool,
    /// `(flag, value)` pairs [`apply`] accepted, in command-line order;
    /// applied over each scenario's defaults.
    overrides: Vec<(String, String)>,
}

impl Cli {
    fn params(&self, scenario: ChaosScenario, seed: u64) -> ChaosParams {
        let mut params = ChaosParams { seed, ..ChaosParams::for_scenario(scenario) };
        params.doctor |= self.doctor_smoke;
        for (flag, raw) in &self.overrides {
            apply(&mut params, flag, Some(raw)).expect("parse accepted this override");
        }
        params
    }
}

/// The value after `flag`, parsed; names both in the error.
fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("invalid value for {flag}: {raw:?}"))
}

/// Applies one parameter flag to `p`.
fn apply(p: &mut ChaosParams, flag: &str, raw: Option<&String>) -> Result<(), String> {
    match flag {
        "--threads" => {
            p.threads = value(flag, raw)?;
            if p.threads == 0 {
                return Err("--threads must be at least 1".into());
            }
        }
        "--ops" => p.ops_per_thread = value(flag, raw)?,
        "--keys" => p.keys = value(flag, raw)?,
        "--limit-mb" => p.limit_bytes = value::<usize>(flag, raw)? << 20,
        "--grow-p" => p.grow_fault_p = value(flag, raw)?,
        "--stall-p" => p.stall_fault_p = value(flag, raw)?,
        "--duration" => {
            let duration = Duration::try_from_secs_f64(value(flag, raw)?);
            p.duration = Some(duration.map_err(|e| format!("invalid value for {flag}: {e}"))?);
        }
        "--reclaim" => p.reclaim = Some(value(flag, raw)?),
        "--garbage-bound" => p.garbage_bound = value(flag, raw)?,
        "--connections" => p.connections = value(flag, raw)?,
        other => return Err(format!("unknown argument {other:?}")),
    }
    Ok(())
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        scenarios: vec![ChaosScenario::Mixed],
        seeds: vec![1, 2, 3],
        kinds: AllocatorKind::BOTH.to_vec(),
        json: false,
        doctor_smoke: false,
        overrides: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--json" => cli.json = true,
            "--doctor-smoke" => cli.doctor_smoke = true,
            "--scenario" => {
                cli.scenarios = match value::<String>(flag, args.next())?.as_str() {
                    "all" => ChaosScenario::ALL.to_vec(),
                    one => vec![one.parse()?],
                };
            }
            "--seed" => cli.seeds = vec![value(flag, args.next())?],
            "--seeds" => {
                let list: String = value(flag, args.next())?;
                let seeds = list.split(',').map(|s| s.trim().parse());
                cli.seeds = seeds
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("invalid value for {flag}: {list:?}"))?;
            }
            "--allocator" => {
                cli.kinds = AllocatorKind::selection(&value::<String>(flag, args.next())?)?;
            }
            parameter => {
                let raw = args.next();
                apply(&mut ChaosParams::default(), parameter, raw)?;
                cli.overrides.push((parameter.to_owned(), raw.cloned().unwrap_or_default()));
            }
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|err| {
        eprintln!("chaos: {err}\n{USAGE}");
        std::process::exit(2);
    });

    // Own-process decision: force the fallback fence protocol so the run
    // covers the no-membarrier path. Must happen before any Rcu is built.
    if !pbs_rcu::force_membarrier_fallback() {
        eprintln!("chaos: membarrier strategy already decided; cannot force fallback");
        std::process::exit(2);
    }

    let mut failed = false;
    for &scenario in &cli.scenarios {
        for &seed in &cli.seeds {
            let params = cli.params(scenario, seed);
            for &kind in &cli.kinds {
                let mut report = run_chaos(kind, &params);
                let verdict = &mut report.verdict;
                if verdict.membarrier_advances != 0 {
                    verdict.violations.push(format!(
                        "{} membarrier advances despite forced fallback",
                        verdict.membarrier_advances
                    ));
                }
                if verdict.fallback_fence_advances == 0 {
                    verdict
                        .violations
                        .push("fallback fence protocol never ran".into());
                }
                if cli.json {
                    println!(
                        "{}",
                        serde_json::to_string(&report).expect("serialize report")
                    );
                } else {
                    println!("{}", report.render());
                    for v in &report.verdict.violations {
                        println!("  violation: {v}");
                    }
                }
                if !report.verdict.passed() {
                    eprintln!("replay: {}", report.replay_command());
                    failed = true;
                }
            }
        }
    }
    if failed {
        eprintln!("chaos: invariant violations detected");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn replay_command_reproduces_the_parameters_of_every_scenario() {
        let reclaim = Some(pbs_rcu::reclaim::ReclaimBackend::from_env());
        for scenario in ChaosScenario::ALL {
            // Every replayable parameter off its scenario default.
            let params = ChaosParams {
                threads: 2,
                ops_per_thread: 300,
                keys: 64,
                seed: 77,
                limit_bytes: 16 << 20,
                grow_fault_p: 0.125,
                stall_fault_p: 0.3,
                duration: Some(Duration::from_millis(40)),
                reclaim,
                garbage_bound: 300,
                connections: 600,
                doctor: scenario == ChaosScenario::StalledReader,
                ..ChaosParams::for_scenario(scenario)
            };
            let report = run_chaos(AllocatorKind::Slub, &params);
            let replay = report.replay_command();
            let (_, flags) = replay.split_once(" -- ").expect("cargo args, then chaos args");
            let cli = parse_line(flags).unwrap_or_else(|e| panic!("{replay}: {e}"));
            assert_eq!(cli.scenarios, [scenario], "{replay}");
            assert_eq!(cli.seeds, [77], "{replay}");
            assert_eq!(cli.kinds, [AllocatorKind::Slub], "{replay}");
            assert_eq!(cli.params(scenario, 77), params, "{replay}");
        }
        // Defaults stay implicit, so the common line stays short.
        let defaults = ChaosParams {
            threads: 2,
            ops_per_thread: 300,
            ..ChaosParams::default()
        };
        let replay = run_chaos(AllocatorKind::Prudence, &defaults).replay_command();
        assert!(replay.ends_with("--threads 2 --ops 300"), "{replay}");
    }

    #[test]
    fn parse_accepts_the_lines_ci_and_the_docs_run() {
        for line in [
            "",
            "--scenario all --seeds 1,2,3",
            "--scenario stalled-reader --reclaim hyaline",
            "--scenario all --seeds 1,2,3 --allocator both",
            "--scenario stalled-reader --seed 5 --allocator both --doctor-smoke",
            "--scenario server-storm --seeds 1,2,3 --allocator both --connections 100000",
            "--scenario oom-storm --json --limit-mb 1 --duration 0.25 --reclaim hp",
        ] {
            assert!(parse_line(line).is_ok(), "rejected {line:?}");
        }
        let cli = parse_line("--scenario all --doctor-smoke --connections 9").unwrap();
        assert_eq!(cli.scenarios, ChaosScenario::ALL);
        let params = cli.params(ChaosScenario::OomStorm, 4);
        assert_eq!(
            params,
            ChaosParams {
                seed: 4,
                doctor: true,
                connections: 9,
                ..ChaosParams::for_scenario(ChaosScenario::OomStorm)
            }
        );
    }

    #[test]
    fn parse_rejects_typos_instead_of_running_the_default() {
        for line in [
            "--scenarios all", "--scenario", "--scenario everything", "--seed x", "--seed",
            "--seeds 1,,2", "--seeds 1,x", "--allocator slab", "--allocator", "--reclaim",
            "--reclaim epochs", "--threads two", "--threads -1", "--threads 0", "--duration -1",
            "--duration soon", "--grow-p lots", "--limit-mb", "--connections 1e5", "--jsn", "mixed", "--doctor",
        ] {
            assert!(parse_line(line).is_err(), "accepted {line:?}");
        }
        for (line, offender) in [
            ("--scenarios all", "--scenarios"),
            ("--seed x", "\"x\""),
            ("--allocator slab", "slab"),
            ("--scenario all --reclaim", "--reclaim"),
        ] {
            let err = parse_line(line).err().unwrap();
            assert!(err.contains(offender), "{line:?}: offending argument named: {err}");
        }
    }
}
