//! A Prudence cache starts no thread of its own. One `#[test]` in this
//! file on purpose: the test harness then runs nothing else in this
//! process, so the task count is exact.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use prudence_repro::rcu::reclaim::{ReclaimBackend, ReclaimConfig};
use prudence_repro::rcu::RcuConfig;
use prudence_repro::workloads::{AllocatorKind, Testbed};

/// The `comm` of every task of this process.
fn task_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| {
            let comm = task.expect("task entry").path().join("comm");
            // A task may exit between the listing and the read.
            std::fs::read_to_string(comm)
                .unwrap_or_default()
                .trim()
                .to_string()
        })
        .collect()
}

#[test]
fn ten_caches_start_no_threads_and_drop_deterministically() {
    // Epoch pinned: the backend whose deferred objects take the latent
    // route, whatever `PBS_RECLAIM` says.
    let bed = Testbed::new_tuned(
        AllocatorKind::Prudence,
        2,
        RcuConfig::linux_like(),
        None,
        None,
        None,
        None,
        Some((ReclaimBackend::Epoch, ReclaimConfig::default())),
    );
    let before = task_names();
    let caches: Vec<_> = (0..10)
        .map(|i| {
            bed.factory()
                .create_cache(&format!("cache-{i}"), 64 << (i % 5))
        })
        .collect();
    for cache in &caches {
        for _ in 0..10_000 {
            let obj = cache.allocate().expect("no memory limit");
            // SAFETY: fresh exclusive object, deferred exactly once.
            unsafe { cache.free_deferred(obj) };
        }
    }
    let after = task_names();
    assert_eq!(
        after.len(),
        before.len(),
        "before: {before:?}\nafter: {after:?}"
    );
    assert!(
        !after.iter().any(|comm| comm.starts_with("prudence-pre")),
        "a pre-flush worker is running: {after:?}"
    );
    let pages = Arc::clone(bed.pages());
    drop(caches);
    drop(bed);
    assert_eq!(
        pages.used_bytes(),
        0,
        "dropping the last handle returns every slab"
    );
}
