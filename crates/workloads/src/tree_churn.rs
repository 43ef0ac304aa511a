//! Extension experiment: tree restructuring as a deferred-free amplifier.
//!
//! §3.1 of the paper motivates bursty freeing with "tree re-balancing
//! results in multiple deferred objects": one logical update can retire
//! several node versions at once. This experiment quantifies that on the
//! [`RcuBst`]: random remove+reinsert churn produces >1 deferred object
//! per operation, and the two allocators are compared under exactly that
//! amplified load.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use serde::{Deserialize, Serialize};

use pbs_rcu::RcuConfig;
use pbs_structs::RcuBst;

use crate::harness::run_workers;
use crate::{AllocatorKind, Testbed};

/// Parameters for the tree-churn experiment.
#[derive(Debug, Clone)]
pub struct TreeChurnParams {
    /// Worker threads, each churning a private tree.
    pub threads: usize,
    /// Keys resident per tree.
    pub keys: u64,
    /// Remove+insert operations per thread.
    pub ops_per_thread: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TreeChurnParams {
    fn default() -> Self {
        Self {
            threads: crate::microbench::num_threads(),
            keys: 512,
            ops_per_thread: 50_000,
            seed: 0xBEEF,
        }
    }
}

/// Result of one tree-churn run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeChurnReport {
    /// Allocator label.
    pub allocator: String,
    /// Remove+insert operations per second.
    pub ops_per_sec: f64,
    /// Average node versions deferred per operation (the §3.1
    /// amplification factor; >1 by construction).
    pub deferred_per_op: f64,
    /// Node-cache statistics.
    pub stats: pbs_alloc_api::CacheStatsSnapshot,
}

/// Runs the tree churn on one allocator.
pub fn run_tree_churn(kind: AllocatorKind, params: &TreeChurnParams) -> TreeChurnReport {
    let bed = Testbed::new(kind, params.threads, RcuConfig::kernel_bursty(), None);
    let cache = bed.create_cache("btree_node", 64);
    let (deferred_total, elapsed) = run_workers(params.threads, |tid| {
        let tree: RcuBst<u64> = RcuBst::new(std::sync::Arc::clone(&cache));
        let reader = bed.rcu().register();
        let mut rng = StdRng::seed_from_u64(params.seed ^ tid as u64);
        for k in 0..params.keys {
            tree.insert(k, k).expect("populate");
        }
        for i in 0..params.ops_per_thread {
            let k = rng.gen_range(0..params.keys);
            tree.remove(k);
            tree.insert(k, i).expect("reinsert");
            // Read-side descent interleaved with the churn: under the
            // robust backends this runs the protected walk against the
            // very versions the churn just deferred.
            if i % 8 == 0 {
                let guard = reader.read_lock();
                assert!(
                    tree.lookup(&guard, k).is_some(),
                    "own reinsert of {k} invisible to a guarded lookup"
                );
            }
        }
        tree.deferred_versions()
    });
    let elapsed = elapsed.as_secs_f64();
    cache.quiesce();
    let total_ops = params.threads as u64 * params.ops_per_thread;
    TreeChurnReport {
        allocator: kind.label().to_owned(),
        ops_per_sec: total_ops as f64 / elapsed,
        deferred_per_op: deferred_total as f64 / total_ops as f64,
        stats: cache.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_updates_amplify_deferrals() {
        let params = TreeChurnParams {
            threads: 2,
            keys: 128,
            ops_per_thread: 2_000,
            seed: 3,
        };
        for kind in AllocatorKind::BOTH {
            let r = run_tree_churn(kind, &params);
            assert!(r.ops_per_sec > 0.0);
            // Each remove defers ≥1 node and each reinsert-over-missing
            // defers none, but two-child removals defer several — the
            // average must exceed one deferral per remove+insert pair.
            assert!(
                r.deferred_per_op > 1.0,
                "{kind}: amplification {:.2} not > 1",
                r.deferred_per_op
            );
            assert_eq!(r.stats.live_objects, 0);
        }
    }
}
