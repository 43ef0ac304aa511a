//! Isolated timing loops on single layers' public calls.
//!
//! A probe is run once, inside the traced run of the workload its layer
//! carries, as nine rounds whose median is reported. On/off comparisons
//! run as alternating off/on pairs and report the median of the per-pair
//! deltas (the method `trace_overhead` proved on this kind of box: slow
//! drift cancels inside each pair, and the median discards a pair a
//! preemption landed in).

use std::sync::Arc;

use pbs_alloc_api::{CacheFactory, FastPathEngine, ObjPtr, ObjectAllocator, SizingPolicy};
use pbs_ledger::stats::median;
use pbs_mem::PageAllocator;
use pbs_rcu::reclaim::{ReclaimBackend, ReclaimConfig};
use pbs_rcu::{Rcu, RcuConfig};
use pbs_structs::RcuList;
use pbs_workloads::apps::{run_server, ServerParams};
use pbs_workloads::AllocatorKind;

use crate::harness::{now_ns, Bed};

const ROUNDS: usize = 9;

/// Probe sizes scale with the run: `1.0` at the contract's run length,
/// less for smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn iters(self, full: usize) -> usize {
        ((full as f64 * self.0) as usize).max(64)
    }
}

type Rows = Vec<(&'static str, f64)>;

/// Median over [`ROUNDS`] rounds of `round()`, which returns ns per call.
fn median_of_rounds(mut round: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS).map(|_| round()).collect();
    median(&samples)
}

fn prudence_bed(backend: ReclaimBackend) -> Bed {
    Bed::with_backend(
        AllocatorKind::Prudence,
        2,
        Some((backend, ReclaimConfig::default())),
    )
}

/// `iters` allocate + write + free (or free_deferred) pairs; ns per pair.
fn pair_loop(cache: &dyn ObjectAllocator, iters: usize, deferred: bool) -> f64 {
    let start = now_ns();
    for i in 0..iters {
        let obj = cache.allocate().expect("probe allocation");
        // SAFETY: fresh exclusive object of at least 8 bytes, freed once.
        unsafe {
            obj.as_ptr().cast::<u64>().write(i as u64);
            if deferred {
                cache.free_deferred(obj);
            } else {
                cache.free(obj);
            }
        }
    }
    (now_ns() - start) as f64 / iters as f64
}

/// Median relative cost of telemetry on versus off, in percent, over
/// alternating pairs of `pair_loop` runs.
fn telemetry_overhead_pct(cache: &dyn ObjectAllocator, iters: usize, deferred: bool) -> f64 {
    let run = |on: bool| {
        pbs_telemetry::set_enabled(on);
        let ns = pair_loop(cache, iters, deferred);
        cache.quiesce();
        ns
    };
    run(false);
    run(true);
    let deltas: Vec<f64> = (0..ROUNDS)
        .map(|rep| {
            let (off, on) = if rep % 2 == 0 {
                let off = run(false);
                (off, run(true))
            } else {
                let on = run(true);
                (run(false), on)
            };
            (on - off) / off * 100.0
        })
        .collect();
    // Leave the flag where the shipped default puts it.
    pbs_telemetry::set_enabled(true);
    median(&deltas)
}

/// Probes carried by `hit_txn`: the per-CPU fast path.
fn hit_txn(scale: Scale) -> Rows {
    let bed = prudence_bed(ReclaimBackend::Epoch);
    let cache = bed.create_cache("probe-512", 512);
    let iters = scale.iters(200_000);
    pair_loop(cache.as_ref(), iters, false);
    let default = median_of_rounds(|| pair_loop(cache.as_ref(), iters, false));
    let overhead = telemetry_overhead_pct(cache.as_ref(), iters, false);
    cache.fastpath_set_engine(FastPathEngine::Locks);
    let locks = median_of_rounds(|| pair_loop(cache.as_ref(), iters, false));
    cache.fastpath_set_enabled(false);
    let off = median_of_rounds(|| pair_loop(cache.as_ref(), iters, false));
    vec![
        ("percpu.hit_pair_ns", default),
        ("percpu.hit_pair_ns_locks", locks),
        ("percpu.hit_pair_ns_off", off),
        ("telemetry.hit_overhead_pct", overhead),
    ]
}

/// Probes carried by `defer_churn`: the deferred-free route per backend,
/// grace-period latency, and what attribution costs.
fn defer_churn(scale: Scale) -> Rows {
    let mut rows = Rows::new();
    let iters = scale.iters(100_000);
    for (name, backend) in [
        ("reclaim.epoch.defer_pair_ns", ReclaimBackend::Epoch),
        ("reclaim.hp.defer_pair_ns", ReclaimBackend::Hp),
        ("reclaim.hyaline.defer_pair_ns", ReclaimBackend::Hyaline),
    ] {
        let bed = prudence_bed(backend);
        let cache = bed.create_cache("probe-128", 128);
        let round = || {
            let ns = pair_loop(cache.as_ref(), iters, true);
            cache.quiesce();
            ns
        };
        round();
        rows.push((name, median_of_rounds(round)));
    }

    let bed = prudence_bed(ReclaimBackend::Epoch);
    let cache = bed.create_cache("probe-128", 128);
    rows.push((
        "telemetry.defer_overhead_pct",
        telemetry_overhead_pct(cache.as_ref(), iters, true),
    ));
    let calls = scale.iters(200);
    rows.push((
        "telemetry.site_report_ns",
        median_of_rounds(|| {
            let start = now_ns();
            for _ in 0..calls {
                std::hint::black_box(pbs_telemetry::site::report());
            }
            (now_ns() - start) as f64 / calls as f64
        }),
    ));
    rows.push((
        "telemetry.snapshot_ns",
        median_of_rounds(|| {
            let start = now_ns();
            for _ in 0..calls {
                std::hint::black_box(bed.testbed().telemetry());
            }
            (now_ns() - start) as f64 / calls as f64
        }),
    ));

    // Grace-period latency on an otherwise idle domain.
    let rcu = Rcu::with_config(RcuConfig::linux_like());
    let time = |f: &dyn Fn()| {
        let start = now_ns();
        f();
        (now_ns() - start) as f64
    };
    rows.push((
        "rcu.synchronize_ns_p50",
        median_of_rounds(|| time(&|| rcu.synchronize())),
    ));
    rows.push((
        "rcu.synchronize_expedited_ns_p50",
        median_of_rounds(|| time(&|| rcu.synchronize_expedited())),
    ));
    rows
}

/// Probes carried by `struct_mix`: the read-side pair and per-hop walk
/// cost per backend.
fn struct_mix(scale: Scale) -> Rows {
    let mut rows = Rows::new();
    let rcu = Rcu::with_config(RcuConfig::linux_like());
    let reader = rcu.register();
    let iters = scale.iters(1_000_000);
    rows.push((
        "rcu.read_lock_pair_ns",
        median_of_rounds(|| {
            let start = now_ns();
            for _ in 0..iters {
                drop(std::hint::black_box(reader.read_lock()));
            }
            (now_ns() - start) as f64 / iters as f64
        }),
    ));
    drop(reader);

    const ENTRIES: u64 = 64;
    let lookups = scale.iters(20_000);
    for (name, backend) in [
        ("traverse.epoch.hop_ns", ReclaimBackend::Epoch),
        ("traverse.hp.hop_ns", ReclaimBackend::Hp),
        ("traverse.hyaline.hop_ns", ReclaimBackend::Hyaline),
    ] {
        let bed = prudence_bed(backend);
        let list: RcuList<u64> = RcuList::new(bed.create_cache("probe-list", 24));
        for key in 0..ENTRIES {
            list.insert(key, key).expect("probe list");
        }
        let reader = bed.testbed().rcu().register();
        // Inserts go to the head, so key 0 is the last of 64 hops.
        rows.push((
            name,
            median_of_rounds(|| {
                let start = now_ns();
                for _ in 0..lookups {
                    let guard = reader.read_lock();
                    std::hint::black_box(list.lookup(&guard, 0));
                }
                (now_ns() - start) as f64 / (lookups as u64 * ENTRIES) as f64
            }),
        ));
    }
    rows
}

/// Probes carried by `mail_crr`: the page allocator, the §3.3
/// refill/grow surcharges on Prudence, and the server scenario.
fn mail_crr(scale: Scale, seed: u64) -> Rows {
    let mut rows = Rows::new();

    let pages = PageAllocator::new();
    let blocks = scale.iters(2_000);
    let (mut alloc_ns, mut free_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let start = now_ns();
        let held: Vec<_> = (0..blocks)
            .map(|_| pages.allocate_pages(1).expect("probe pages"))
            .collect();
        let mid = now_ns();
        for block in held {
            pages.free_pages(block);
        }
        alloc_ns.push((mid - start) as f64 / blocks as f64);
        free_ns.push((now_ns() - mid) as f64 / blocks as f64);
    }
    rows.push(("mem.alloc_pages_ns", median(&alloc_ns)));
    rows.push(("mem.free_pages_ns", median(&free_ns)));

    let (refill, grow) = refill_grow_extra_ns(scale);
    rows.push(("prudence.refill_extra_ns", refill));
    rows.push(("prudence.grow_extra_ns", grow));

    // The PR 10 scenario at smoke scale, no stalled shard. Its latency
    // percentiles are log-bucket upper bounds, not interpolated values.
    let report = run_server(
        AllocatorKind::Prudence,
        &ServerParams {
            seed,
            stalled_shard: false,
            reclaim: Some(ReclaimBackend::Epoch),
            ..ServerParams::smoke()
        },
    );
    let latency = report.alloc_latency;
    rows.push((
        "workloads.server_requests_per_s",
        report.totals.requests as f64 / report.elapsed_secs.max(1e-9),
    ));
    rows.push((
        "workloads.server_alloc_p50_ns",
        latency.map_or(0.0, |p| p.p50 as f64),
    ));
    rows.push((
        "workloads.server_alloc_p99_ns",
        latency.map_or(0.0, |p| p.p99 as f64),
    ));
    rows.push((
        "workloads.server_garbage_max",
        report.max_garbage_storm as f64,
    ));
    rows
}

/// The §3.3 method of `pbs_workloads::alloc_cost`, on Prudence with the
/// fast path off: the extra cost a refill, and a grow, add to an
/// allocation, extracted from mixed regimes with the allocator's own
/// operation counters. Returns `(refill_extra_ns, grow_extra_ns)`.
fn refill_grow_extra_ns(scale: Scale) -> (f64, f64) {
    const OBJECT_SIZE: usize = 512;
    let bed = prudence_bed(ReclaimBackend::Epoch);
    // Created through the testbed, not the bed: the bed would keep every
    // round's caches (and their slabs) alive to the end of the probe.
    let slow_cache = |name: &str| -> Arc<dyn ObjectAllocator> {
        let cache = bed.testbed().create_cache(name, OBJECT_SIZE);
        cache.fastpath_set_enabled(false);
        cache
    };
    let iters = scale.iters(50_000);

    let hit = slow_cache("cost-hit");
    pair_loop(hit.as_ref(), iters / 10, false);
    let hit_pair_ns = pair_loop(hit.as_ref(), iters, false);

    let batch = 2 * SizingPolicy::for_object_size(OBJECT_SIZE).object_cache_size;
    let mut held = Vec::with_capacity(iters);
    let cycle = |cache: &dyn ObjectAllocator, held: &mut Vec<ObjPtr>, n: usize| {
        for _ in 0..n {
            held.push(cache.allocate().expect("probe allocation"));
        }
        for obj in held.drain(..) {
            // SAFETY: each held object is freed exactly once.
            unsafe { cache.free(obj) };
        }
    };

    let mut refill_samples = Vec::new();
    let mut grow_samples = Vec::new();
    for _ in 0..ROUNDS {
        // Refill regime: cycle twice the object cache through alloc/free
        // batches on warm slabs; the surplus over pure hits, per refill.
        let cache = slow_cache("cost-refill");
        cycle(cache.as_ref(), &mut held, batch);
        let before = cache.stats();
        let start = now_ns();
        for _ in 0..(iters / batch).max(1) {
            cycle(cache.as_ref(), &mut held, batch);
        }
        let elapsed = (now_ns() - start) as f64;
        let after = cache.stats();
        let allocs = (after.alloc_requests - before.alloc_requests) as f64;
        let refills = ((after.refills - before.refills) as f64).max(1.0);
        let refill_extra = ((elapsed - allocs * hit_pair_ns) / refills).max(0.0);
        refill_samples.push(refill_extra);

        // Grow regime: allocate-only from a cold cache; what is left
        // after the hit and refill shares, per grow.
        let cache = slow_cache("cost-grow");
        let before = cache.stats();
        let start = now_ns();
        for _ in 0..iters {
            held.push(cache.allocate().expect("probe allocation"));
        }
        let elapsed = (now_ns() - start) as f64;
        let after = cache.stats();
        let allocs = (after.alloc_requests - before.alloc_requests) as f64;
        let refills = (after.refills - before.refills) as f64;
        let grows = ((after.grows - before.grows) as f64).max(1.0);
        grow_samples.push(
            ((elapsed - allocs * hit_pair_ns / 2.0 - refills * refill_extra) / grows).max(0.0),
        );
        for obj in held.drain(..) {
            // SAFETY: each held object is freed exactly once.
            unsafe { cache.free(obj) };
        }
    }
    (median(&refill_samples), median(&grow_samples))
}

/// Cost of one clock read: a latency round adds one to each operation,
/// a traced round two to each span.
pub fn clock_ns() -> f64 {
    median_of_rounds(|| {
        const READS: usize = 100_000;
        let start = now_ns();
        for _ in 0..READS {
            std::hint::black_box(now_ns());
        }
        (now_ns() - start) as f64 / READS as f64
    })
}

/// The probe rows each workload's traced run carries. On the other
/// workloads these rows read 0: not measured there.
pub const CARRIED: [(&str, &[&str]); 4] = [
    (
        "defer_churn",
        &[
            "reclaim.epoch.defer_pair_ns",
            "reclaim.hp.defer_pair_ns",
            "reclaim.hyaline.defer_pair_ns",
            "telemetry.defer_overhead_pct",
            "telemetry.site_report_ns",
            "telemetry.snapshot_ns",
            "rcu.synchronize_ns_p50",
            "rcu.synchronize_expedited_ns_p50",
        ],
    ),
    (
        "hit_txn",
        &[
            "percpu.hit_pair_ns",
            "percpu.hit_pair_ns_locks",
            "percpu.hit_pair_ns_off",
            "telemetry.hit_overhead_pct",
        ],
    ),
    (
        "struct_mix",
        &[
            "rcu.read_lock_pair_ns",
            "traverse.epoch.hop_ns",
            "traverse.hp.hop_ns",
            "traverse.hyaline.hop_ns",
            "structs.bst_deferred_per_update",
        ],
    ),
    (
        "mail_crr",
        &[
            "mem.alloc_pages_ns",
            "mem.free_pages_ns",
            "prudence.refill_extra_ns",
            "prudence.grow_extra_ns",
            "workloads.server_requests_per_s",
            "workloads.server_alloc_p50_ns",
            "workloads.server_alloc_p99_ns",
            "workloads.server_garbage_max",
        ],
    ),
];

/// Runs the probes `workload` carries.
pub fn run(workload: &str, scale: Scale, seed: u64) -> Rows {
    match workload {
        "defer_churn" => defer_churn(scale),
        "hit_txn" => hit_txn(scale),
        "struct_mix" => struct_mix(scale),
        "mail_crr" => mail_crr(scale, seed),
        _ => Rows::new(),
    }
}
