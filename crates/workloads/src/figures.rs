//! Orchestration: regenerate every table and figure of the paper's
//! evaluation and render them in paper-like form.

use std::fmt::Write as _;

use pbs_alloc_api::CacheStatsSnapshot;
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig};
use pbs_rcu::RcuConfig;
use prudence::PrudenceConfig;
use serde::{Deserialize, Serialize};

use crate::apps::{compare, AppParams, APP_NAMES};
use crate::report::AppComparison;
use crate::{AllocatorKind, Testbed};

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

/// The §4.2 ablation rows: the full design, then each optimization
/// altered alone. These rows are why [`PrudenceConfig`] keeps its five
/// Prudence-only switches.
pub fn ablation_variants() -> Vec<(&'static str, PrudenceConfig)> {
    let full = PrudenceConfig::new(2);
    // Exhaustive on purpose: a switch added to `PrudenceConfig` does not
    // compile until it has a row below.
    let PrudenceConfig {
        engine: _,
        latent_cache,
        partial_refill,
        proportional_flush,
        deferred_aware_selection,
        slab_scan_window: _,
    } = full;
    let base = || full.clone();
    vec![
        ("full", base()),
        ("no_latent_cache", base().with_latent_cache(!latent_cache)),
        ("no_partial_refill", base().with_partial_refill(!partial_refill)),
        ("no_proportional_flush", base().with_proportional_flush(!proportional_flush)),
        ("no_deferred_selection", base().with_deferred_aware_selection(!deferred_aware_selection)),
        ("scan_window_1", base().with_slab_scan_window(1)),
        ("scan_window_100", base().with_slab_scan_window(100)),
    ]
}

/// Runs `pairs` 512 B `allocate` + `free_deferred` pairs on one thread
/// per [`ablation_variants`] row and returns each row's allocator
/// attributes after `quiesce`. Pinned to the epoch backend: under hp and
/// hyaline Prudence hands deferred objects to the domain and the
/// switches have nothing to act on. What a switch buys in time is the
/// ledger's to say (EXPERIMENTS.md, Ablations); this shows its mechanism.
pub fn run_ablation(pairs: u64) -> Vec<(&'static str, CacheStatsSnapshot)> {
    ablation_variants()
        .into_iter()
        .map(|(name, config)| {
            let bed = Testbed::new_tuned(
                AllocatorKind::Prudence,
                2,
                RcuConfig::linux_like(),
                None,
                None,
                None,
                Some(config),
                Some((ReclaimBackend::Epoch, ReclaimConfig::default())),
            );
            let cache = bed.create_cache("ablation", 512);
            for _ in 0..pairs {
                let obj = cache.allocate().expect("ablation runs without a memory limit");
                // SAFETY: fresh exclusive object, deferred exactly once.
                unsafe {
                    obj.as_ptr().cast::<u64>().write(0xBEEF);
                    cache.free_deferred(obj);
                }
            }
            cache.quiesce();
            (name, cache.stats())
        })
        .collect()
}

/// Renders [`run_ablation`]'s rows as a text table.
pub fn render_ablation(pairs: u64, rows: &[(&'static str, CacheStatsSnapshot)]) -> String {
    let mut out = format!(
        "\u{00a7}4.2 ablation — {pairs} kmalloc/kfree_deferred pairs of 512 B, 1 thread, epoch backend\n\
         {:<22} {:>9} {:>9} {:>8} {:>8} {:>6} {:>13}\n",
        "variant", "refills", "flushes", "grows", "shrinks", "peak", "pre_movements"
    );
    for (name, s) in rows {
        let _ = writeln!(
            out,
            "{name:<22} {:>9} {:>9} {:>8} {:>8} {:>6} {:>13}",
            s.refills, s.flushes, s.grows, s.shrinks, s.slabs_peak, s.pre_movements
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_has_one_row_per_switch() {
        let fields = |c: &PrudenceConfig| {
            let switches = [
                c.latent_cache,
                c.partial_refill,
                c.proportional_flush,
                c.deferred_aware_selection,
            ];
            (switches, c.slab_scan_window)
        };
        let variants = ablation_variants();
        assert_eq!(variants[0].0, "full");
        let (full, full_window) = fields(&variants[0].1);
        // Per later row: which one switch it flips, or the window it sets.
        let changed: Vec<Result<usize, usize>> = variants[1..]
            .iter()
            .map(|(name, config)| {
                let (switches, window) = fields(config);
                let flipped: Vec<usize> =
                    (0..switches.len()).filter(|&i| switches[i] != full[i]).collect();
                match (flipped.as_slice(), window == full_window) {
                    ([switch], true) => Ok(*switch),
                    ([], false) => Err(window),
                    _ => panic!("{name} must differ from full in exactly one field"),
                }
            })
            .collect();
        assert_eq!(changed, [Ok(0), Ok(1), Ok(2), Ok(3), Err(1), Err(100)]);
    }

    #[test]
    fn every_ablation_variant_runs_and_renders() {
        let rows = run_ablation(3_000);
        assert_eq!(rows.len(), 7);
        for (name, stats) in &rows {
            assert_eq!(stats.deferred_frees, 3_000, "{name}");
        }
        let text = render_ablation(3_000, &rows);
        assert!(text.contains("pre_movements") && text.contains("scan_window_100"));
    }

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
