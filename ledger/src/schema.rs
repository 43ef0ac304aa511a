//! The benchmark contract, parsed from the repository's `BENCHMARK.json`.
//!
//! The file is embedded at compile time: the binary prints exactly the
//! names listed there, with the units listed there, and `compare` judges
//! against the bounds listed there. A name the binary cannot produce, or
//! produces without it being listed, is a run-time error rather than a
//! silent drift between the contract and the harness.

use serde_json::Value;

/// The embedded contract text.
pub const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// One named metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name (`ops_per_s`, `prudence.refills_per_kop`, ...).
    pub name: String,
    /// Unit string printed beside every value.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the reference median by which the metric may worsen
    /// before it is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Workload names with the reason each is in the benchmark.
    pub workloads: Vec<(String, String)>,
    /// Metrics a user of the system would see; gated by their bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers; never gated.
    pub per_layer: Vec<MetricSpec>,
    /// Seconds one driver run measures for.
    pub run_seconds: u64,
}

fn field<'a>(map: &'a Value, key: &str) -> Result<&'a Value, String> {
    match map {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("BENCHMARK.json: missing key {key:?}")),
        _ => Err(format!("BENCHMARK.json: expected an object around {key:?}")),
    }
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    match field(value, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: {key:?} is not a string")),
    }
}

/// Reads any JSON number as `f64`.
fn number(value: &Value) -> Option<f64> {
    match value {
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        Value::F64(v) => Some(*v),
        _ => None,
    }
}

fn list<'a>(root: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match field(root, key)? {
        Value::Seq(items) => Ok(items),
        _ => Err(format!("BENCHMARK.json: {key:?} is not a list")),
    }
}

fn metrics(root: &Value, key: &str, bounded: bool) -> Result<Vec<MetricSpec>, String> {
    list(root, key)?
        .iter()
        .map(|m| {
            let better = text(m, "better")?;
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: if bounded {
                    Some(
                        number(field(m, "bound")?)
                            .ok_or("BENCHMARK.json: bound is not a number")?,
                    )
                } else {
                    None
                },
            })
        })
        .collect()
}

impl Schema {
    /// Parses the embedded contract.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing key.
    pub fn embedded() -> Result<Self, String> {
        Self::parse(BENCHMARK_JSON)
    }

    /// Parses contract text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing key.
    pub fn parse(json: &str) -> Result<Self, String> {
        let root: Value =
            serde_json::from_str(json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
        let workloads = list(&root, "workloads")?
            .iter()
            .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            workloads,
            end_to_end: metrics(&root, "end_to_end", true)?,
            per_layer: metrics(&root, "per_layer", false)?,
            run_seconds: number(field(&root, "run_seconds")?)
                .ok_or("BENCHMARK.json: run_seconds is not a number")?
                as u64,
        })
    }

    /// The metric list a run of the given kind must print: per-layer
    /// metrics for a traced run, end-to-end metrics otherwise.
    pub fn metrics_for(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Looks a workload name up.
    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|(n, _)| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_contract_parses_and_names_are_well_formed() {
        let schema = Schema::embedded().expect("embedded BENCHMARK.json parses");
        assert_eq!(schema.workloads.len(), 4);
        assert_eq!(schema.end_to_end.len(), 7);
        assert!(schema
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut seen = std::collections::BTreeSet::new();
        for m in schema.end_to_end.iter().chain(&schema.per_layer) {
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && !m.name.is_empty());
            assert!(m
                .name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
    }
}
