//! Judging one set of runs against another by the contract's bounds.

use std::path::Path;

use crate::report::WorkloadReport;
use crate::schema::Schema;

/// What a comparison cell says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A run's own quartile spread is wider than the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    /// Label printed in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × end-to-end metric cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median of set A (the reference).
    pub a: f64,
    /// Median of set B.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative = better).
    pub worse_by: f64,
    /// The wider of the two runs' quartile spreads, as a share of the
    /// median.
    pub spread: f64,
    /// The contract's bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Loads `<workload>.json` from `dir` for every workload of the contract
/// that has one (a run may cover a subset).
///
/// # Errors
///
/// Returns the first file that does not parse, or that `dir` holds no
/// report at all.
pub fn load_dir(schema: &Schema, dir: &Path) -> Result<Vec<WorkloadReport>, String> {
    let reports = schema
        .workloads
        .iter()
        .map(|(name, _)| dir.join(format!("{name}.json")))
        .filter(|path| path.is_file())
        .map(|path| WorkloadReport::load(&path))
        .collect::<Result<Vec<_>, String>>()?;
    if reports.is_empty() {
        return Err(format!(
            "{}: no <workload>.json report found",
            dir.display()
        ));
    }
    Ok(reports)
}

/// Compares every workload × end-to-end metric present in both sets.
pub fn compare(schema: &Schema, a: &[WorkloadReport], b: &[WorkloadReport]) -> Vec<Row> {
    let mut rows = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            continue;
        };
        for spec in &schema.end_to_end {
            let (Some(ma), Some(mb)) = (ra.metric(&spec.name), rb.metric(&spec.name)) else {
                continue;
            };
            let bound = spec.bound.unwrap_or(0.0);
            let worse_by = if ma.value == 0.0 {
                0.0
            } else if spec.higher_is_better {
                (ma.value - mb.value) / ma.value.abs()
            } else {
                (mb.value - ma.value) / ma.value.abs()
            };
            let spread = ma.spread().max(mb.spread());
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: ra.workload.clone(),
                metric: spec.name.clone(),
                unit: spec.unit.clone(),
                a: ma.value,
                b: mb.value,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// Renders the comparison table, one row per cell.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<18} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "worse_by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<18} {:>16.4} {:>16.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {} [{}]\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label(),
            r.unit,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{MetricValue, RunMeta};

    fn report(ops: &[f64], p50: &[f64]) -> WorkloadReport {
        WorkloadReport {
            workload: "defer_churn".into(),
            traced: false,
            meta: RunMeta::default(),
            correct: true,
            ops_attempted: 1,
            ops_failed: 0,
            failed_by_config: Vec::new(),
            checks: Vec::new(),
            metrics: [("ops_per_s", ops), ("op_p50_ns", p50)]
                .map(|(name, rounds)| MetricValue {
                    name: name.into(),
                    ..MetricValue::from_rounds(rounds, 0)
                })
                .to_vec(),
            latency_ladder_ns: Vec::new(),
            layer_share_pct: Vec::new(),
        }
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn direction_bound_and_spread_decide_the_verdict() {
        let schema = Schema::embedded().unwrap();
        let a = report(&[100.0, 100.0, 100.0], &[50.0, 50.0, 50.0]);
        // Throughput halves (worse), latency halves (better).
        let b = report(&[50.0, 50.0, 50.0], &[25.0, 25.0, 25.0]);
        let rows = compare(&schema, std::slice::from_ref(&a), &[b]);
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "op_p50_ns"), Verdict::Within);
        // A run whose own rounds disagree by more than the bound resolves
        // nothing, whichever way the medians point.
        let noisy = report(&[50.0, 100.0, 150.0], &[50.0, 50.0, 50.0]);
        let rows = compare(&schema, &[a], &[noisy]);
        assert_eq!(verdict(&rows, "ops_per_s"), Verdict::Unresolved);
        assert!(render(&rows).contains("unresolved"));
    }
}
