//! §3.4 denial-of-service scenario, production-shaped: a slowloris and
//! churn storm against the sharded server workload.
//!
//! The paper: extended object lifetimes "can be exploited to create
//! denial-of-service attacks ... a malicious user performs file open-close
//! operations in a tight loop to generate [a] high rate of deferred
//! objects", exhausting memory. The original form of this example was a
//! raw open/close flood with no assertions; the attack now lives inside
//! the server scenario (`pbs_workloads::apps::run_server`), where half
//! the storm's dials are slowloris attackers that hold connections
//! without completing requests while churn floods the accept path. This
//! wrapper runs that scenario on both allocators and *asserts* graceful
//! degradation instead of merely printing it:
//!
//! * overload is shed (backlogged accepts counted, never panicked);
//! * slow connections are evicted by deadline, not leaked;
//! * the alloc path's p99.9 latency stays bounded through the storm;
//! * service recovers after the storm and tears down to zero bytes.
//!
//! ```text
//! cargo run --release --example dos_resilience
//! ```

use prudence_repro::workloads::apps::{run_server, ServerParams, ATTACKER_FRACTION};
use prudence_repro::workloads::AllocatorKind;

fn main() {
    let params = ServerParams::smoke();
    println!(
        "slowloris + churn storm: {} connections x {} shards, {:.0}% attackers, \
         storm {}ms\n",
        params.connections,
        params.shards,
        ATTACKER_FRACTION * 100.0,
        params.storm_ms,
    );
    let mut failed = false;
    for kind in AllocatorKind::BOTH {
        let report = run_server(kind, &params);
        println!("{}", report.render());
        for violation in &report.verdict.violations {
            println!("  VIOLATION: {violation}");
            failed = true;
        }
        // The DoS-specific claims, asserted on top of the scenario's own
        // gates so the example fails loudly if resilience regresses.
        assert_eq!(report.verdict.panics, 0, "{kind}: a reactor shard panicked under attack");
        assert!(
            report.storm.shed_accepts > 0,
            "{kind}: the storm never pushed the accept path into shedding"
        );
        assert!(
            report.totals.timeouts > 0,
            "{kind}: no slowloris connection was evicted by deadline"
        );
        assert!(
            report.recovery.requests > 0,
            "{kind}: service did not come back after the storm"
        );
        assert_eq!(
            report.verdict.used_bytes_after_teardown, 0,
            "{kind}: memory survived teardown"
        );
    }
    if failed {
        eprintln!("\ndegradation gates violated; see report lines above");
        std::process::exit(1);
    }
    println!("\nboth allocators shed the attack, evicted stallers and recovered");
}
