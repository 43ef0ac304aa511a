//! The `call_rcu` reclaimers belong to the epoch domain, and only the
//! configuration that defers through it runs them. One `#[test]` in this
//! file on purpose: the test harness then runs nothing else in this
//! process, so the task count is exact.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use prudence_repro::rcu::reclaim::{ReclaimBackend, ReclaimConfig};
use prudence_repro::rcu::RcuConfig;
use prudence_repro::workloads::{AllocatorKind, Testbed};

/// How many tasks of this process are callback reclaimers.
fn reclaimer_tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|task| {
            let comm = task.as_ref().expect("task entry").path().join("comm");
            // A task may exit between the listing and the read.
            std::fs::read_to_string(comm).is_ok_and(|c| c.starts_with("rcu-reclaim-"))
        })
        .count()
}

/// The reclaimer count once it reaches `want`, or after five seconds: a
/// thread names itself after it starts, and a joined one can linger in
/// procfs for a moment.
fn settled_reclaimer_tasks(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    while reclaimer_tasks() != want && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    reclaimer_tasks()
}

/// A testbed on `backend` after deferred churn through two caches.
fn churned(kind: AllocatorKind, backend: ReclaimBackend) -> Testbed {
    let bed = Testbed::new_tuned(
        kind,
        2,
        RcuConfig::linux_like(),
        None,
        None,
        None,
        None,
        Some((backend, ReclaimConfig::default())),
    );
    for size in [64, 256] {
        let cache = bed.create_cache(&format!("churn-{size}"), size);
        for _ in 0..2_000 {
            let obj = cache.allocate().expect("no memory limit");
            // SAFETY: fresh exclusive object, deferred exactly once.
            unsafe { cache.free_deferred(obj) };
        }
    }
    bed
}

#[test]
fn only_the_slub_epoch_configuration_runs_reclaimers() {
    for (kind, backend) in [
        (AllocatorKind::Prudence, ReclaimBackend::Epoch),
        (AllocatorKind::Slub, ReclaimBackend::Hp),
        (AllocatorKind::Slub, ReclaimBackend::Hyaline),
    ] {
        let bed = churned(kind, backend);
        assert_eq!(reclaimer_tasks(), 0, "{kind:?}/{backend} started reclaimers");
        drop(bed);
    }
    let bed = churned(AllocatorKind::Slub, ReclaimBackend::Epoch);
    let want = RcuConfig::linux_like().reclaimer_threads;
    assert_eq!(
        settled_reclaimer_tasks(want),
        want,
        "the SLUB control's first defer starts its domain's reclaimers"
    );
    drop(bed);
    assert_eq!(settled_reclaimer_tasks(0), 0, "dropping the testbed joins its reclaimers");
}
