//! pgbench emulation: TPC-B-style transactions over concurrent sessions.
//!
//! PostgreSQL exercises the allocator differently from the other three
//! benchmarks (paper §5.4): most of its kernel allocations are
//! `kmalloc-64`-sized and are freed *immediately*, outside any deferred
//! context — only 4.4 % of frees are deferred. Those immediate frees
//! "interfere with the decisions taken by Prudence resulting in more
//! object cache churns" for kmalloc-64, the one regression the paper
//! reports. This driver reproduces that mix: per transaction, a burst of
//! kmalloc-64 work objects mostly freed in place, a couple of RCU-deferred
//! ones (fd-table/SELinux-style), and larger transient buffers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::AppParams;
use crate::harness::run_workers;
use crate::report::AppResult;
use crate::{AllocatorKind, Testbed};

/// Per transaction: small work objects (locks, tags, fd-table entries...).
const K64_PER_TXN: usize = 24;
/// ...of which this many are freed through RCU (≈5 % of total frees, the
/// paper's 4.4 % for PostgreSQL).
const K64_DEFERRED_PER_TXN: usize = 1;
/// Larger row/WAL buffers per transaction, immediate-freed.
const BUF_PER_TXN: usize = 3;

/// Runs the pgbench emulation; one transaction = one TPC-B-ish unit.
pub fn run_pgbench(kind: AllocatorKind, params: &AppParams) -> AppResult {
    let bed = Testbed::new(kind, params.threads, pbs_rcu::RcuConfig::kernel_bursty(), None);
    let k64 = bed.create_cache("kmalloc-64", 64);
    let k1024 = bed.create_cache("kmalloc-1024", 1024);
    let selinux = bed.create_cache("selinux", 64);
    let (ops, elapsed) = run_workers(params.threads, |tid| {
        let mut rng = StdRng::seed_from_u64(params.seed ^ (tid as u64) << 16);
        // Session start: a security blob for the backend socket.
        let session_blob = selinux.allocate().expect("session blob");
        let mut local = 0u64;
        let mut work = Vec::with_capacity(K64_PER_TXN);
        for _ in 0..params.transactions_per_thread {
            for _ in 0..K64_PER_TXN {
                let o = k64.allocate().expect("k64");
                // SAFETY: fresh exclusive object.
                unsafe { o.as_ptr().cast::<u64>().write(local) };
                work.push(o);
            }
            for _ in 0..BUF_PER_TXN {
                let b = k1024.allocate().expect("buf");
                // SAFETY: fresh exclusive object of 1024 bytes.
                unsafe {
                    std::ptr::write_bytes(b.as_ptr(), 0x11, 1024);
                    k1024.free(b);
                }
            }
            // Free the burst: mostly immediate, a sliver deferred —
            // and in random order, as PostgreSQL's own free pattern
            // interleaves with the deferred context.
            for (i, o) in work.drain(..).enumerate() {
                // SAFETY: each work object freed exactly once.
                unsafe {
                    if i < K64_DEFERRED_PER_TXN && rng.gen_bool(0.9) {
                        k64.free_deferred(o);
                    } else {
                        k64.free(o);
                    }
                }
            }
            local += 1;
        }
        // Session end: the blob is RCU-deferred like socket
        // teardown.
        // SAFETY: blob unpublished, freed once.
        unsafe { selinux.free_deferred(session_blob) };
        local
    });
    bed.quiesce();
    AppResult::new("pgbench", kind.label(), params.threads, ops, elapsed, bed.cache_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_deferred_share_like_postgresql() {
        let params = AppParams {
            threads: 2,
            transactions_per_thread: 400,
            pool_size: 0,
            seed: 11,
        };
        for kind in AllocatorKind::BOTH {
            let r = run_pgbench(kind, &params);
            assert_eq!(r.ops, 800);
            let pct = r.deferred_free_percent();
            // The paper's PostgreSQL signature: a small deferred share.
            assert!(
                pct > 0.5 && pct < 15.0,
                "{kind}: deferred share {pct:.1}% out of expected range"
            );
            let stats: std::collections::HashMap<_, _> =
                r.caches.iter().cloned().collect();
            assert!(stats["kmalloc-64"].frees > stats["kmalloc-64"].deferred_frees * 10);
        }
    }
}
