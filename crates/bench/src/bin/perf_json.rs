//! perf_json — machine-readable before/after performance capture.
//!
//! Criterion output is for humans; this binary produces the committed
//! numbers. It measures the two hot paths the paper's evaluation leans
//! on — the Figure 6 kmalloc/kfree_deferred pair loop and the §3.3
//! cache-hit regime — across thread counts, and merges the results into
//! `BENCH_fig6.json` / `BENCH_alloc_cost.json` under a run label, so a
//! "baseline" run and an "optimized" run can sit side by side in the
//! same file.
//!
//! Usage:
//!
//! ```text
//! perf_json <label> [--out-dir DIR] [--threads 1,2,4,8] [--secs 0.5]
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pbs_rcu::RcuConfig;
use pbs_workloads::alloc_cost::measure_alloc_cost;
use pbs_workloads::{AllocatorKind, Testbed};
use serde::Serialize;
use serde_json::Value;

/// One measured configuration of a pair loop.
#[derive(Debug, Clone, Serialize)]
struct PairRow {
    /// Allocator label ("slub" / "prudence").
    allocator: String,
    /// Object size in bytes.
    object_size: usize,
    /// Concurrent worker threads.
    threads: usize,
    /// Aggregate pairs per second across all threads.
    pairs_per_sec: f64,
    /// Mean wall nanoseconds per pair per thread.
    ns_per_pair: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut label = None;
    let mut out_dir = ".".to_string();
    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    let mut secs = 0.5f64;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out-dir" => out_dir = args.next().expect("--out-dir needs a value"),
            "--threads" => {
                threads = args
                    .next()
                    .expect("--threads needs a value")
                    .split(',')
                    .map(|t| t.parse().expect("bad thread count"))
                    .collect();
            }
            "--secs" => {
                secs = args
                    .next()
                    .expect("--secs needs a value")
                    .parse()
                    .expect("bad seconds");
            }
            other if label.is_none() && !other.starts_with('-') => {
                label = Some(other.to_string());
            }
            other => panic!("unexpected argument {other:?}"),
        }
    }
    let label = label.unwrap_or_else(|| "run".to_string());
    let duration = Duration::from_secs_f64(secs);
    let meta = run_metadata();
    println!(
        "run metadata: rev={} nproc={} kernel={} engine={} reclaim={}",
        meta.git_rev, meta.nproc, meta.kernel, meta.fastpath_engine, meta.reclaim_backend
    );

    // Figure 6 regime: alloc + deferred free, contended per-CPU state.
    let mut fig6_rows = Vec::new();
    println!("fig6 deferred-pair sweep ({label}):");
    for &size in &[128usize, 1024] {
        for kind in AllocatorKind::BOTH {
            for &t in &threads {
                let row = measure_pair_loop(kind, size, t, duration, true);
                println!(
                    "  {:<9} size={size:<5} threads={t}  {:>12.0} pairs/s  {:>8.1} ns/pair",
                    row.allocator, row.pairs_per_sec, row.ns_per_pair
                );
                fig6_rows.push(row);
            }
        }
    }
    merge_run(
        &format!("{out_dir}/BENCH_fig6.json"),
        &label,
        serde_json::json!({
            "meta": meta,
            "rows": fig6_rows,
        }),
    );

    // §3.3 hit regime: alloc + immediate free (pure object-cache hits),
    // plus the single-threaded derived cost table.
    let mut hit_rows = Vec::new();
    println!("alloc-cost hit-path sweep ({label}):");
    for kind in AllocatorKind::BOTH {
        for &t in &threads {
            let row = measure_pair_loop(kind, 512, t, duration, false);
            println!(
                "  {:<9} threads={t}  {:>12.0} pairs/s  {:>8.1} ns/pair",
                row.allocator, row.pairs_per_sec, row.ns_per_pair
            );
            hit_rows.push(row);
        }
    }
    let table = measure_alloc_cost(512, 100_000);
    let blob = serde_json::json!({
        "meta": meta,
        "hit_path": hit_rows,
        "s33_table": table,
    });
    merge_run(&format!("{out_dir}/BENCH_alloc_cost.json"), &label, blob);
}

/// Provenance recorded with every committed run, so a number in a BENCH
/// file can be traced to the code, machine and fast-path engine that
/// produced it.
#[derive(Debug, Clone, Serialize)]
struct RunMeta {
    /// `git rev-parse --short HEAD`, or "unknown" outside a checkout.
    git_rev: String,
    /// Available hardware parallelism on the measuring machine.
    nproc: usize,
    /// Kernel release (`/proc/sys/kernel/osrelease`), or "unknown".
    kernel: String,
    /// Fast-path engine new caches select here ("rseq" / "locks"), after
    /// any `PBS_FASTPATH` override; "off" when the override disabled the
    /// fast path entirely (the run measures the regular paths).
    fastpath_engine: String,
    /// Value of `PBS_FASTPATH` if the run was forced, else null.
    fastpath_override: Option<String>,
    /// Reclamation backend new testbeds select here ("epoch" / "hp" /
    /// "hyaline"), after any `PBS_RECLAIM` override.
    reclaim_backend: String,
    /// Value of `PBS_RECLAIM` if the run was forced, else null.
    reclaim_override: Option<String>,
}

fn run_metadata() -> RunMeta {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    RunMeta {
        git_rev,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel,
        fastpath_engine: pbs_alloc_api::fastpath_effective_label().to_string(),
        fastpath_override: pbs_alloc_api::FastPathOverride::from_env()
            .map(|o| o.label().to_string()),
        reclaim_backend: pbs_rcu::reclaim::ReclaimBackend::from_env()
            .label()
            .to_string(),
        reclaim_override: pbs_rcu::reclaim::ReclaimBackend::env_override().map(|b| b.label().to_string()),
    }
}

/// Runs `threads` workers doing alloc/free pairs on one shared cache for
/// `duration`, returning the aggregate rate. `deferred` selects
/// `free_deferred` (the Figure 6 loop) versus `free` (the hit regime).
fn measure_pair_loop(
    kind: AllocatorKind,
    object_size: usize,
    threads: usize,
    duration: Duration,
    deferred: bool,
) -> PairRow {
    let bed = Testbed::new(kind, threads, RcuConfig::linux_like(), None);
    let cache = bed.create_cache("perf", object_size);
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let total = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = (0..threads)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                barrier.wait();
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Batch the stop check off the measured path.
                    for _ in 0..64 {
                        let obj = cache.allocate().expect("perf allocation");
                        // SAFETY: fresh exclusive object, freed exactly once.
                        unsafe {
                            obj.as_ptr().cast::<u64>().write(0xBEEF);
                            if deferred {
                                cache.free_deferred(obj);
                            } else {
                                cache.free(obj);
                            }
                        }
                    }
                    ops += 64;
                }
                total.fetch_add(ops, Ordering::Relaxed);
            })
        })
        .collect();

    barrier.wait();
    let start = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().expect("perf worker panicked");
    }
    let elapsed = start.elapsed().as_secs_f64();
    if std::env::var_os("PERF_JSON_DUMP_STATS").is_some() {
        eprintln!("  stats: {:?}", cache.stats());
        eprintln!("  rcu:   {:?}", bed.rcu().stats());
    }
    cache.quiesce();

    let pairs = total.load(Ordering::Relaxed) as f64;
    let pairs_per_sec = pairs / elapsed;
    PairRow {
        allocator: kind.label().to_string(),
        object_size,
        threads,
        pairs_per_sec,
        ns_per_pair: threads as f64 * elapsed * 1e9 / pairs.max(1.0),
    }
}

/// Inserts `data` under `runs.<label>` in the JSON file at `path`,
/// creating the file or replacing an existing run of the same label.
fn merge_run(path: &str, label: &str, data: Value) {
    let mut root = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .unwrap_or_else(|| Value::Map(vec![("runs".to_string(), Value::Map(Vec::new()))]));
    let Value::Map(entries) = &mut root else {
        panic!("{path}: top level is not an object");
    };
    let runs = match entries.iter_mut().find(|(key, _)| key == "runs") {
        Some((_, runs)) => runs,
        None => {
            entries.push(("runs".to_string(), Value::Map(Vec::new())));
            &mut entries.last_mut().unwrap().1
        }
    };
    let Value::Map(runs) = runs else {
        panic!("{path}: \"runs\" is not an object");
    };
    match runs.iter_mut().find(|(key, _)| key == label) {
        Some((_, slot)) => *slot = data,
        None => runs.push((label.to_string(), data)),
    }
    let text = serde_json::to_string_pretty(&root).expect("serialize run file");
    std::fs::write(path, text + "\n").expect("write run file");
    println!("merged run {label:?} into {path}");
}
