//! ApacheBench emulation: HTTP request handling over the simulated stack.
//!
//! `ab` with 128 parallel clients (paper §5.3) drives, per request:
//! connection accept, epoll registration, serving a static file (filp
//! churn on the served file), the response transfer, epoll removal and
//! connection teardown. The deferred-free traffic comes from connection
//! teardown and from "the removal of the target file descriptor from
//! epoll instance" (`eventpoll_epi`). The paper measured 18 % deferred
//! frees and a 5.6 % throughput win.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pbs_simfs::SimFs;
use pbs_simnet::{Epoll, SimNet};

use super::AppParams;
use crate::harness::run_workers;
use crate::report::AppResult;
use crate::{AllocatorKind, Testbed};

const RESPONSE_BYTES: usize = 4096;

/// Runs the ApacheBench emulation; one transaction = one HTTP request.
pub fn run_apache(kind: AllocatorKind, params: &AppParams) -> AppResult {
    let bed = Testbed::new(kind, params.threads, pbs_rcu::RcuConfig::kernel_bursty(), None);
    let net = SimNet::new(bed.factory());
    let epoll = Epoll::new(bed.factory());
    let fs = SimFs::new(bed.factory());
    // The served document tree.
    let docs: Vec<pbs_simfs::Ino> = (0..params.pool_size.max(1))
        .map(|name| fs.create(0, name).expect("create document"))
        .collect();
    let (ops, elapsed) = run_workers(params.threads, |tid| {
        let mut rng = StdRng::seed_from_u64(params.seed ^ (tid as u64) << 8);
        for _ in 0..params.transactions_per_thread {
            let conn = net.connect().expect("accept");
            epoll.add(conn.0, 0x1).expect("epoll add");
            // Serve a random static document.
            let doc = docs[rng.gen_range(0..docs.len())];
            let fd = fs.open(doc).expect("open doc");
            fs.read(fd, RESPONSE_BYTES).expect("read doc");
            fs.close(fd).expect("close doc");
            net.request_response(conn, RESPONSE_BYTES).expect("send");
            epoll.del(conn.0);
            net.close(conn).expect("teardown");
        }
        params.transactions_per_thread
    });
    bed.quiesce();
    AppResult::new("apache", kind.label(), params.threads, ops, elapsed, bed.cache_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_traffic_shape() {
        let params = AppParams {
            threads: 2,
            transactions_per_thread: 200,
            pool_size: 10,
            seed: 3,
        };
        for kind in AllocatorKind::BOTH {
            let r = run_apache(kind, &params);
            assert_eq!(r.ops, 400);
            let stats: std::collections::HashMap<_, _> =
                r.caches.iter().cloned().collect();
            // One epi registration/removal per request.
            assert_eq!(stats["eventpoll_epi"].deferred_frees, 400);
            // One filp per connection and one per served document
            // open/close: the stack and the filesystem share the `filp`
            // row, as they share one slab cache in Linux.
            assert_eq!(stats["filp"].deferred_frees, 800);
            assert!(r.deferred_free_percent() > 5.0);
        }
    }
}
