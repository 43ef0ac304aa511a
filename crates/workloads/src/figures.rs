//! Orchestration: regenerate every table and figure of the paper's
//! evaluation and render them in paper-like form.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::apps::{compare, AppParams, APP_NAMES};
use crate::report::AppComparison;

/// The object sizes Figure 6 sweeps.
pub const FIG6_SIZES: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Figure 6 output: per size, the baseline and Prudence rates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure6Row {
    /// Object size in bytes.
    pub object_size: usize,
    /// Baseline pairs/second.
    pub slub: f64,
    /// Prudence pairs/second.
    pub prudence: f64,
}

impl Figure6Row {
    /// The paper's headline multiple (3.9×–28.6× on their hardware).
    pub fn speedup(&self) -> f64 {
        if self.slub == 0.0 {
            0.0
        } else {
            self.prudence / self.slub
        }
    }
}

/// Renders Figure 6 as a text table.
pub fn render_figure6(rows: &[Figure6Row]) -> String {
    let mut out = String::from(
        "Figure 6 — kmalloc/kfree_deferred pairs per second\n\
         size      slub pairs/s  prudence pairs/s   speedup\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8} {:>13.0} {:>17.0} {:>8.1}x",
            r.object_size,
            r.slub,
            r.prudence,
            r.speedup()
        );
    }
    out
}

/// Runs Figures 7–13: all four application benchmarks on both allocators.
pub fn figures7_to_13(params: &AppParams) -> Vec<AppComparison> {
    APP_NAMES.iter().map(|name| compare(name, params)).collect()
}

/// Renders the application-benchmark figures, including the Figure 12 and
/// Figure 13 summary rows.
pub fn render_figures7_to_13(comparisons: &[AppComparison]) -> String {
    let mut out = String::from("Figures 7-11 — per-cache allocator attributes\n\n");
    for cmp in comparisons {
        out.push_str(&cmp.render());
        out.push('\n');
    }
    out.push_str("Figure 12 — deferred frees out of total frees\n");
    for cmp in comparisons {
        let _ = writeln!(
            out,
            "{:<10} {:>5.1}%",
            cmp.name,
            cmp.slub.deferred_free_percent()
        );
    }
    out.push_str("\nFigure 13 — overall throughput improvement of Prudence\n");
    for cmp in comparisons {
        let _ = writeln!(
            out,
            "{:<10} {:>+6.1}%  (slub {:.0} ops/s -> prudence {:.0} ops/s)",
            cmp.name,
            cmp.throughput_improvement_percent(),
            cmp.slub.ops_per_sec,
            cmp.prudence.ops_per_sec
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_row_math() {
        let r = Figure6Row {
            object_size: 512,
            slub: 100.0,
            prudence: 400.0,
        };
        assert!((r.speedup() - 4.0).abs() < 1e-9);
        let text = render_figure6(&[r]);
        assert!(text.contains("4.0x"));
    }

    #[test]
    fn renders_are_nonempty() {
        let params = AppParams {
            threads: 1,
            transactions_per_thread: 50,
            pool_size: 8,
            seed: 1,
        };
        let cmp = compare("netperf", &params);
        let text = render_figures7_to_13(std::slice::from_ref(&cmp));
        assert!(text.contains("Figure 13"));
        assert!(text.contains("netperf"));
    }
}
