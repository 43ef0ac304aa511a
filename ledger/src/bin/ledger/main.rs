//! `ledger` — run the benchmark, or compare two sets of runs.
//!
//! ```text
//! ledger run (--all | --workload NAME) [--seed N] [--seconds S]
//!            [--trace [0|1]] [--threads N] [--out DIR] [--repeat N]
//! ledger compare DIR_A DIR_B
//! ```
//!
//! `--trace 0` (the default) takes the end-to-end metrics, `--trace 1`
//! the per-layer metrics, a bare `--trace` both, one run after the
//! other. Each run prints `workload metric value unit` lines and then
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`;
//! reports go to `--out` (default `target/ledger`). The driver's form,
//! `ledger --workload NAME --seed N --seconds S --trace 0|1`, is `run`
//! with the subcommand left out.

mod harness;
mod probes;
mod run;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pbs_ledger::compare::{self, Verdict};
use pbs_ledger::report::default_threads;
use pbs_ledger::Schema;

use run::RunOpts;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let schema = match Schema::embedded() {
        Ok(schema) => schema,
        Err(e) => return fail(&e),
    };
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare_cmd(&schema, &args[1..]),
        Some("run") => run_cmd(&schema, &args[1..]),
        Some(flag) if flag.starts_with("--") => run_cmd(&schema, &args),
        _ => Err(
            "usage: ledger run (--all | --workload NAME) [--seed N] [--seconds S] [--trace [0|1]] \
                  [--threads N] [--out DIR] [--repeat N]\n       ledger compare DIR_A DIR_B"
                .to_string(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("ledger: {message}");
    ExitCode::from(2)
}

fn value<T: std::str::FromStr>(
    args: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a valid value"))
}

fn run_cmd(schema: &Schema, args: &[String]) -> Result<ExitCode, String> {
    for var in ["PBS_FASTPATH", "PBS_RECLAIM"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; the ledger times the shipped defaults and sets its variants itself"
            ));
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut workloads: Vec<String> = Vec::new();
    let mut opts = RunOpts {
        seed: 1,
        seconds: schema.run_seconds as f64,
        threads: default_threads(nproc),
        out: PathBuf::from("target/ledger"),
    };
    // Which runs to make: [end-to-end, traced].
    let mut runs = [true, false];
    let mut repeat = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => workloads = schema.workloads.iter().map(|(n, _)| n.clone()).collect(),
            "--workload" => {
                let name: String = value(&mut it, "--workload")?;
                if !schema.has_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                workloads.push(name);
            }
            "--seed" => opts.seed = value(&mut it, "--seed")?,
            "--seconds" => opts.seconds = value(&mut it, "--seconds")?,
            "--threads" => opts.threads = value::<usize>(&mut it, "--threads")?.max(1),
            "--out" => opts.out = PathBuf::from(value::<String>(&mut it, "--out")?),
            "--repeat" => repeat = value::<usize>(&mut it, "--repeat")?.max(1),
            "--trace" => {
                runs = match it.clone().next().map(String::as_str) {
                    Some("0") => [true, false],
                    Some("1") => [false, true],
                    _ => [true, true],
                };
                if runs != [true, true] {
                    it.next();
                }
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".to_string());
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if opts.threads > default_threads(nproc) {
        eprintln!(
            "ledger: {} workers on {nproc} cores: oversubscribed, numbers are time-sliced, not scaling",
            opts.threads
        );
    }

    let mut all_correct = true;
    let mut dirs = Vec::new();
    for rep in 0..repeat {
        let mut opts = opts.clone();
        if repeat > 1 {
            opts.out = opts.out.join(format!("run{}", rep + 1));
        }
        for workload in &workloads {
            for traced in [false, true] {
                if !runs[usize::from(traced)] {
                    continue;
                }
                let report = run::run_workload(workload, traced, &opts, schema)?;
                print!("{}", run::render(&report));
                for check in report.checks.iter().filter(|c| !c.ok) {
                    eprintln!(
                        "ledger: {workload}: check failed: {} ({})",
                        check.name, check.detail
                    );
                }
                for (config, failed) in report.failed_by_config.iter().filter(|(_, n)| *n > 0) {
                    eprintln!("ledger: {workload}: {failed} operations failed on {config}");
                }
                println!("{}", run::result_line(&report));
                all_correct &= report.correct;
            }
        }
        dirs.push(opts.out);
    }
    let mut regressed = false;
    if runs[0] {
        for pair in dirs.windows(2) {
            regressed |= compare_dirs(schema, &pair[0], &pair[1])?;
        }
    }
    Ok(if all_correct && !regressed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Prints the comparison of two report directories; `true` = regressed.
fn compare_dirs(schema: &Schema, a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare::compare(
        schema,
        &compare::load_dir(schema, a)?,
        &compare::load_dir(schema, b)?,
    );
    println!("compare {} -> {}", a.display(), b.display());
    print!("{}", compare::render(&rows));
    Ok(rows.iter().any(|r| r.verdict == Verdict::Regressed))
}

fn compare_cmd(schema: &Schema, args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: ledger compare DIR_A DIR_B".to_string());
    };
    let regressed = compare_dirs(schema, Path::new(a), Path::new(b))?;
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
