//! Postmark emulation: mail-server file churn on the simulated
//! filesystem.
//!
//! Postmark (paper §5.3) maintains a pool of small files and runs
//! transactions that read, append, create and delete them. On ext4 +
//! SELinux this stresses `ext4_inode`, `dentry`, `filp` and `selinux` —
//! with deletions and closes deferring frees through RCU. The paper
//! measured 24.4 % of all frees as deferred for this workload, the
//! highest of the four benchmarks, and the largest Prudence speedup
//! (+18 %).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pbs_simfs::SimFs;

use super::AppParams;
use crate::harness::run_workers;
use crate::report::AppResult;
use crate::{AllocatorKind, Testbed};

/// Runs the Postmark emulation on one allocator.
pub fn run_postmark(kind: AllocatorKind, params: &AppParams) -> AppResult {
    let bed = Testbed::new(kind, params.threads, pbs_rcu::RcuConfig::kernel_bursty(), None);
    let fs = SimFs::new(bed.factory());
    let (ops, elapsed) = run_workers(params.threads, |tid| {
        let reader = bed.rcu().register();
        let mut rng = StdRng::seed_from_u64(params.seed ^ tid as u64);
        let dir = tid as u64;
        // Initial pool, as Postmark creates its file set up front.
        let mut files: Vec<u64> = (0..params.pool_size).collect();
        let mut next_name = params.pool_size;
        for &name in &files {
            fs.create(dir, name).expect("pool create");
        }
        let mut local = 0u64;
        for _ in 0..params.transactions_per_thread {
            // Postmark transaction mix: half data ops (read or
            // append), half metadata ops (create or delete).
            match rng.gen_range(0..4u32) {
                0 => {
                    // Read a random file.
                    if let Some(&name) = pick(&mut rng, &files) {
                        let guard = reader.read_lock();
                        let ino = fs.lookup(&guard, dir, name);
                        drop(guard);
                        if let Some(ino) = ino {
                            let fd = fs.open(ino).expect("open");
                            fs.read(fd, rng.gen_range(512..8192)).expect("read");
                            fs.close(fd).expect("close");
                        }
                    }
                }
                1 => {
                    // Append to a random file.
                    if let Some(&name) = pick(&mut rng, &files) {
                        let guard = reader.read_lock();
                        let ino = fs.lookup(&guard, dir, name);
                        drop(guard);
                        if let Some(ino) = ino {
                            let fd = fs.open(ino).expect("open");
                            fs.append(fd, rng.gen_range(512..4096)).expect("append");
                            fs.close(fd).expect("close");
                        }
                    }
                }
                2 => {
                    // Create a new file.
                    let name = next_name;
                    next_name += 1;
                    fs.create(dir, name).expect("create");
                    files.push(name);
                }
                _ => {
                    // Delete a random file (keep the pool
                    // non-empty).
                    if files.len() > 1 {
                        let i = rng.gen_range(0..files.len());
                        let name = files.swap_remove(i);
                        fs.unlink(dir, name).expect("unlink");
                    }
                }
            }
            local += 1;
        }
        local
    });
    bed.quiesce();
    AppResult::new("postmark", kind.label(), params.threads, ops, elapsed, bed.cache_stats())
}

fn pick<'a, T>(rng: &mut StdRng, items: &'a [T]) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.gen_range(0..items.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_on_both_allocators_with_deferred_mix() {
        let params = AppParams {
            threads: 2,
            transactions_per_thread: 300,
            pool_size: 20,
            seed: 7,
        };
        for kind in AllocatorKind::BOTH {
            let r = run_postmark(kind, &params);
            assert_eq!(r.ops, 600);
            assert!(r.ops_per_sec > 0.0);
            // Postmark's signature: a substantial deferred-free share
            // (paper: 24.4%).
            let pct = r.deferred_free_percent();
            assert!(pct > 5.0, "{kind}: deferred {pct:.1}% too low");
            assert!(
                r.caches.iter().any(|(n, s)| n == "ext4_inode" && s.deferred_frees > 0),
                "inode deferred frees expected"
            );
        }
    }
}
