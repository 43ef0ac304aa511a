//! Runs all four workloads at about 1/200 scale, end to end and traced,
//! and holds the harness to its contract: every name in `BENCHMARK.json`
//! is printed exactly once per workload with its unit, the names are
//! well-formed, and every output check passes (the binary exits 0 only
//! then).

use std::collections::BTreeMap;
use std::process::Command;

use pbs_ledger::Schema;

#[test]
fn every_listed_metric_is_printed_once_per_workload_and_checks_pass() {
    let schema = Schema::embedded().expect("BENCHMARK.json parses");
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger_smoke");
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "run",
            "--all",
            "--seed",
            "7",
            "--seconds",
            "0.1",
            "--trace",
            "--out",
        ])
        .arg(&out_dir)
        .env_remove("PBS_FASTPATH")
        .env_remove("PBS_RECLAIM")
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "ledger failed:\n{stderr}\n{stdout}"
    );

    // (workload, metric) -> (times printed, unit)
    let mut seen: BTreeMap<(String, String), (usize, String)> = BTreeMap::new();
    let mut results = 0;
    for line in stdout.lines() {
        if line.starts_with('{') {
            assert!(
                line.contains("\"correct\": true"),
                "a run reported incorrect outputs: {line}"
            );
            assert!(
                line.contains("\"failed\": 0"),
                "a run reported failed operations: {line}"
            );
            results += 1;
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [workload, metric, value, unit] = fields[..] else {
            panic!("not a `workload metric value unit` line: {line:?}");
        };
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{line:?}: value is not a finite number"
        );
        let entry = seen
            .entry((workload.to_string(), metric.to_string()))
            .or_default();
        entry.0 += 1;
        entry.1 = unit.to_string();
    }
    // One end-to-end and one traced result line per workload.
    assert_eq!(results, 2 * schema.workloads.len());

    for (workload, _) in &schema.workloads {
        for spec in schema.end_to_end.iter().chain(&schema.per_layer) {
            assert!(
                spec.name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{} is not [A-Za-z0-9_.-]+",
                spec.name
            );
            let (times, unit) = seen
                .remove(&(workload.clone(), spec.name.clone()))
                .unwrap_or_else(|| panic!("{workload}: {} was not printed", spec.name));
            assert_eq!(times, 1, "{workload}: {} printed {times} times", spec.name);
            assert_eq!(
                unit, spec.unit,
                "{workload}: {} printed with the wrong unit",
                spec.name
            );
        }
        for file in [
            format!("{workload}.json"),
            format!("{workload}.layers.json"),
            format!("{workload}.trace.json"),
        ] {
            assert!(out_dir.join(&file).is_file(), "{file} was not written");
        }
    }
    assert!(
        seen.is_empty(),
        "printed but not listed in BENCHMARK.json: {:?}",
        seen.keys()
    );

    // Each layer does most of the work in one workload and little in
    // another, as designed.
    let layers = |workload: &str| {
        pbs_ledger::WorkloadReport::load(&out_dir.join(format!("{workload}.layers.json"))).unwrap()
    };
    let fast_hits = |workload: &str| {
        layers(workload)
            .metric("percpu.fast_hit_ratio")
            .unwrap()
            .value
    };
    assert!(
        fast_hits("hit_txn") >= 0.95,
        "hit_txn runs on the per-CPU fast path"
    );
    assert!(
        fast_hits("defer_churn") <= 0.5,
        "defer_churn bypasses the per-CPU fast path"
    );
}

#[test]
fn refuses_to_run_with_the_engine_or_backend_forced() {
    for var in ["PBS_FASTPATH", "PBS_RECLAIM"] {
        let status = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(["run", "--workload", "hit_txn", "--seconds", "0.01"])
            .env(var, "locks")
            .output()
            .expect("ledger runs");
        assert!(!status.status.success(), "{var} set must be refused");
    }
}
