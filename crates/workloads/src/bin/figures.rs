//! Regenerates the tables and figures of the paper's evaluation and
//! prints them in paper-like form.
//!
//! ```text
//! figures [--quick] [--json PATH] [--telemetry PREFIX]      every table and figure
//! figures fig6 [PAIRS] [--telemetry PREFIX]                 Figure 6 sweep with per-run attributes
//! figures fig3 [SECONDS] [--csv PATH] [--telemetry PREFIX]  full-length Figure 3 (+ memory trace)
//! ```
//!
//! `--quick` shrinks workload sizes for a fast smoke pass; the default
//! "everything" run takes about half a minute on two cores. `--telemetry`
//! writes the runs' merged telemetry to `PREFIX.prom` and
//! `PREFIX.trace.json` (for the default run: the two Figure 3 runs).
//! `fig3 --csv` writes `ms,slub_bytes,prudence_bytes` rows for plotting.
//! Anything else — an unknown selector or flag, a missing or non-numeric
//! value — is a usage error (exit 2), never a silently different run.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pbs_alloc_api::TelemetrySnapshot;
use pbs_workloads::alloc_cost::measure_alloc_cost;
use pbs_workloads::apps::AppParams;
use pbs_workloads::endurance::{
    run_endurance, EnduranceParams, EnduranceReport, EnduranceSample,
};
use pbs_workloads::figures::{
    figures7_to_13, render_figure6, render_figures7_to_13, Figure6Row, FIG6_SIZES,
};
use pbs_workloads::microbench::{run_microbench, MicrobenchParams};
use pbs_workloads::telemetry_export::{accumulate_labeled, write_telemetry};
use pbs_workloads::tree_churn::{run_tree_churn, TreeChurnParams};
use pbs_workloads::AllocatorKind;

const USAGE: &str = "usage: figures [--quick] [--json PATH] [--telemetry PREFIX]
       figures fig6 [PAIRS] [--telemetry PREFIX]
       figures fig3 [SECONDS] [--csv PATH] [--telemetry PREFIX]
  PAIRS, SECONDS: integers >= 1";

#[derive(Debug, PartialEq)]
enum Cmd {
    All { quick: bool, json: Option<String>, telemetry: Option<PathBuf> },
    Fig6 { pairs: u64, telemetry: Option<PathBuf> },
    Fig3 { seconds: u64, csv: Option<String>, telemetry: Option<PathBuf> },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let (selector, rest) = match args.split_first() {
        Some((first, rest)) if !first.starts_with("--") => (first.as_str(), rest),
        _ => ("", args),
    };
    if !["", "fig6", "fig3"].contains(&selector) {
        return Err(format!("unknown selector {selector:?}"));
    }
    let (mut quick, mut count) = (false, None);
    let (mut json, mut csv, mut telemetry) = (None, None, None);
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        let mut value = || match rest.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{arg} needs a value")),
        };
        match (selector, arg.as_str()) {
            ("", "--quick") => quick = true,
            ("", "--json") => json = Some(value()?),
            ("fig3", "--csv") => csv = Some(value()?),
            ("" | "fig6" | "fig3", "--telemetry") => telemetry = Some(PathBuf::from(value()?)),
            ("fig6" | "fig3", n) if !n.starts_with("--") && count.is_none() => {
                let n = n.parse().ok().filter(|&n: &u64| n >= 1);
                count = Some(n.ok_or_else(|| format!("{arg:?} is not an integer >= 1"))?);
            }
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    Ok(match selector {
        "fig6" => Cmd::Fig6 { pairs: count.unwrap_or(200_000), telemetry },
        "fig3" => Cmd::Fig3 { seconds: count.unwrap_or(20), csv, telemetry },
        _ => Cmd::All { quick, json, telemetry },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cmd::All { quick, json, telemetry }) => {
            all_figures(quick, json.as_deref(), telemetry.as_deref());
        }
        Ok(Cmd::Fig6 { pairs, telemetry }) => {
            fig6(pairs, telemetry.as_deref());
        }
        Ok(Cmd::Fig3 { seconds, csv, telemetry }) => {
            fig3(Duration::from_secs(seconds), 96 << 20, csv.as_deref(), telemetry.as_deref());
        }
        Err(err) => {
            eprintln!("figures: {err}\n{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Writes the runs' merged telemetry, each run's caches prefixed with its
/// allocator label, to `prefix`.
fn write_labeled_telemetry(prefix: &Path, runs: Vec<(&str, TelemetrySnapshot)>) {
    let mut telemetry = TelemetrySnapshot::default();
    for (label, snapshot) in runs {
        accumulate_labeled(&mut telemetry, label, snapshot);
    }
    let (prom, trace) = write_telemetry(prefix, &telemetry).expect("write telemetry");
    println!("wrote {}", prom.display());
    println!("wrote {} (load it in chrome://tracing)", trace.display());
}

/// Figure 6: the sweep with every run's allocator attributes beside its
/// rate, then the speedup table.
fn fig6(pairs: u64, telemetry_prefix: Option<&Path>) -> Vec<Figure6Row> {
    let params = MicrobenchParams { pairs_per_thread: pairs, ..MicrobenchParams::default() };
    println!(
        "Figure 6 microbenchmark: {} threads x {} kmalloc/kfree_deferred pairs",
        params.threads, params.pairs_per_thread
    );
    println!(
        "{:<9} {:>5} {:>12} {:>7} {:>9} {:>9} {:>7} {:>7} {:>6}",
        "alloc", "size", "pairs/s", "hit%", "refills", "flushes", "grows", "shrinks", "peak"
    );
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    for object_size in FIG6_SIZES {
        let [slub, prudence] = AllocatorKind::BOTH.map(|kind| {
            let point = run_microbench(kind, object_size, &params);
            let s = &point.stats;
            println!(
                "{:<9} {:>5} {:>12.0} {:>6.1}% {:>9} {:>9} {:>7} {:>7} {:>6}",
                kind.label(), object_size, point.pairs_per_sec, s.hit_percent(), s.refills,
                s.flushes, s.grows, s.shrinks, s.slabs_peak
            );
            if telemetry_prefix.is_some() {
                runs.push((kind.label(), point.telemetry));
            }
            point.pairs_per_sec
        });
        rows.push(Figure6Row { object_size, slub, prudence });
    }
    println!("\n{}", render_figure6(&rows));
    if let Some(prefix) = telemetry_prefix {
        write_labeled_telemetry(prefix, runs);
    }
    rows
}

/// Figure 3: the endurance run on both allocators, baseline first, with
/// an optional `ms,slub_bytes,prudence_bytes` CSV of the memory curves.
fn fig3(
    duration: Duration,
    memory_limit: usize,
    csv_path: Option<&str>,
    telemetry_prefix: Option<&Path>,
) -> [EnduranceReport; 2] {
    let params = EnduranceParams { duration, memory_limit, ..EnduranceParams::default() };
    println!(
        "Figure 3 — total used memory under continuous RCU updates: {} threads, 512 B objects, \
         {} MiB limit, {} s",
        params.threads, memory_limit >> 20, duration.as_secs_f64()
    );
    let reports = AllocatorKind::BOTH.map(|kind| {
        let report = run_endurance(kind, &params);
        println!("{}", report.render());
        report
    });
    let [slub, prudence] = &reports;

    if let Some(prefix) = telemetry_prefix {
        let runs = vec![("slub", slub.telemetry.clone()), ("prudence", prudence.telemetry.clone())];
        write_labeled_telemetry(prefix, runs);
    }

    if let Some(path) = csv_path {
        let mut csv = String::from("ms,slub_bytes,prudence_bytes\n");
        for i in 0..slub.samples.len().max(prudence.samples.len()) {
            let (s, p) = (slub.samples.get(i), prudence.samples.get(i));
            let bytes = |x: Option<&EnduranceSample>| {
                x.map(|x| x.used_bytes.to_string()).unwrap_or_default()
            };
            csv.push_str(&format!("{},{},{}\n", s.or(p).map_or(0, |x| x.ms), bytes(s), bytes(p)));
        }
        std::fs::write(path, csv).expect("write csv");
        println!("wrote {path}");
    }
    reports
}

fn all_figures(quick: bool, json_path: Option<&str>, telemetry_prefix: Option<&Path>) {
    let scale: u64 = if quick { 1 } else { 10 };

    println!("== Prudence reproduction: paper evaluation ==\n");

    // §3.3 cost table.
    let cost = measure_alloc_cost(512, 100_000 * scale);
    println!("{}\n", cost.render());

    let fig6 = fig6(20_000 * scale, None);

    let (duration, limit) = if quick { (1_500, 24 << 20) } else { (10_000, 96 << 20) };
    let [slub3, prudence3] = fig3(Duration::from_millis(duration), limit, None, telemetry_prefix);
    println!();

    // Figures 7-13.
    let app_params = AppParams {
        transactions_per_thread: 2_000 * scale,
        ..AppParams::default()
    };
    let comparisons = figures7_to_13(&app_params);
    println!("{}", render_figures7_to_13(&comparisons));

    // Extension: §3.1 tree-update deferral amplification.
    let tree_params = TreeChurnParams {
        ops_per_thread: 5_000 * scale,
        ..TreeChurnParams::default()
    };
    println!("\nExtension — RCU tree churn (\u{00a7}3.1 multi-deferral amplification)");
    let mut tree_reports = Vec::new();
    for kind in AllocatorKind::BOTH {
        let r = run_tree_churn(kind, &tree_params);
        println!(
            "{:<9} {:>10.0} ops/s  {:.2} deferrals/op  grows={} shrinks={} peak={}",
            r.allocator, r.ops_per_sec, r.deferred_per_op, r.stats.grows, r.stats.shrinks,
            r.stats.slabs_peak
        );
        tree_reports.push(r);
    }

    if let Some(path) = json_path {
        let blob = serde_json::json!({
            "alloc_cost": cost,
            "figure6": fig6,
            "figure3": { "slub": slub3, "prudence": prudence3 },
            "figures7_to_13": comparisons,
            "tree_churn": tree_reports,
        });
        std::fs::write(path, serde_json::to_string_pretty(&blob).expect("serialize"))
            .expect("write json");
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cmd, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parse_accepts_every_documented_form() {
        let path = |p: &str| Some(PathBuf::from(p));
        for (line, cmd) in [
            ("", Cmd::All { quick: false, json: None, telemetry: None }),
            (
                "--quick --json out.json --telemetry target/t",
                Cmd::All { quick: true, json: Some("out.json".into()), telemetry: path("target/t") },
            ),
            ("fig6", Cmd::Fig6 { pairs: 200_000, telemetry: None }),
            ("fig6 5000 --telemetry target/t", Cmd::Fig6 { pairs: 5000, telemetry: path("target/t") }),
            ("fig3", Cmd::Fig3 { seconds: 20, csv: None, telemetry: None }),
            ("fig3 --csv f.csv 3", Cmd::Fig3 { seconds: 3, csv: Some("f.csv".into()), telemetry: None }),
        ] {
            assert_eq!(parse_line(line), Ok(cmd), "{line:?}");
        }
    }

    #[test]
    fn parse_rejects_typos_instead_of_running_the_default() {
        for line in [
            "--quik", "fig7", "microbench", "fig6 5k", "fig6 0", "fig6 5000 6000", "fig6 --quick",
            "fig6 --csv x.csv", "fig3 ten", "fig3 --csv", "fig3 --csv --telemetry t",
            "fig3 --json x.json", "ablation", "ablation --quick", "--json",
            "--telemetry", "--quick 5000",
        ] {
            assert!(parse_line(line).is_err(), "accepted {line:?}");
        }
        let err = parse_line("--quik").unwrap_err();
        assert!(err.contains("--quik"), "offending argument named: {err}");
        let err = parse_line("fig7").unwrap_err();
        assert!(err.contains("fig7"), "offending selector named: {err}");
    }
}
