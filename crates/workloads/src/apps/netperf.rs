//! Netperf TCP_CRR emulation: connect / request / response / close.
//!
//! TCP_CRR (paper §5.3) measures connection setup+teardown plus one
//! request/response exchange per connection. Teardown defers the socket
//! objects ("objects are deferred for freeing during connection tear
//! down"), stressing `sock`, `filp` and `selinux`; payload `skbuff`s are
//! immediate-freed. The paper measured 14 % deferred frees and a 4.2 %
//! Prudence throughput win, with `filp` slab churn dropping from 364 K to
//! 6 K.

use pbs_simnet::SimNet;

use super::AppParams;
use crate::harness::run_workers;
use crate::report::AppResult;
use crate::{AllocatorKind, Testbed};

/// Request and response sizes of the paper's TCP_CRR configuration
/// (1-byte request, 1-byte response at the protocol level; we include the
/// header-ish minimum buffer).
const REQUEST_BYTES: usize = 128;

/// Runs the TCP_CRR emulation; one transaction = one
/// connect/request/response/close cycle.
pub fn run_netperf(kind: AllocatorKind, params: &AppParams) -> AppResult {
    let bed = Testbed::new(kind, params.threads, pbs_rcu::RcuConfig::kernel_bursty(), None);
    let net = SimNet::new(bed.factory());
    let (ops, elapsed) = run_workers(params.threads, |_| {
        for _ in 0..params.transactions_per_thread {
            let conn = net.connect().expect("connect");
            // Handshake segments (SYN, SYN/ACK, ACK) ...
            net.request_response(conn, 1).expect("handshake");
            // ... one request/response exchange ...
            net.request_response(conn, REQUEST_BYTES).expect("rr");
            // ... FIN/ACK teardown segments, then teardown proper.
            net.request_response(conn, 1).expect("fin");
            net.request_response(conn, 1).expect("ack");
            net.close(conn).expect("close");
        }
        params.transactions_per_thread
    });
    net.quiesce();
    let caches = net
        .stats()
        .into_iter()
        .map(|(n, s)| (n.to_owned(), s))
        .collect();
    AppResult::new("netperf", kind.label(), params.threads, ops, elapsed, caches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crr_cycle_traffic_shape() {
        let params = AppParams {
            threads: 2,
            transactions_per_thread: 300,
            pool_size: 0,
            seed: 1,
        };
        for kind in AllocatorKind::BOTH {
            let r = run_netperf(kind, &params);
            assert_eq!(r.ops, 600);
            let stats: std::collections::HashMap<_, _> =
                r.caches.iter().cloned().collect();
            // Every connection defers exactly one sock, filp and selinux.
            assert_eq!(stats["sock"].deferred_frees, 600);
            assert_eq!(stats["filp"].deferred_frees, 600);
            assert_eq!(stats["skbuff"].deferred_frees, 0);
            assert!(r.deferred_free_percent() > 5.0);
        }
    }
}
