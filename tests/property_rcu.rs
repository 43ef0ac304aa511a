//! Property tests on the RCU substrate: epoch monotonicity, grace-period
//! ordering, and callback completeness under arbitrary interleavings.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use proptest::prelude::*;

use prudence_repro::rcu::reclaim::{EpochDomain, ReclaimClient, ReclamationDomain};
use prudence_repro::rcu::{GpState, Rcu, RcuConfig};

/// Counts the addresses the epoch domain hands back.
#[derive(Default)]
struct Counting(AtomicU64);

impl ReclaimClient for Counting {
    fn reclaim_addrs(&self, addrs: &[usize]) {
        self.0.fetch_add(addrs.len() as u64, Ordering::SeqCst);
    }
}

#[derive(Debug, Clone)]
enum RcuOp {
    /// Capture a grace-period state.
    Snapshot,
    /// Enter and leave a read-side critical section.
    ReadSection,
    /// Wait for a full grace period.
    Synchronize,
    /// Defer an address into the epoch domain (the callback path).
    CallRcu,
}

fn rcu_op() -> impl Strategy<Value = RcuOp> {
    prop_oneof![
        Just(RcuOp::Snapshot),
        Just(RcuOp::ReadSection),
        Just(RcuOp::Synchronize),
        Just(RcuOp::CallRcu),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn epoch_and_grace_period_ordering(ops in proptest::collection::vec(rcu_op(), 1..60)) {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = EpochDomain::new(Arc::clone(&rcu));
        let counter = Arc::new(Counting::default());
        let client = domain.register_client(Arc::downgrade(&counter) as Weak<dyn ReclaimClient>);
        let reader = rcu.register();
        let mut queued = 0u64;
        let mut snapshots: Vec<GpState> = Vec::new();
        let mut last_epoch = rcu.current_epoch();

        for op in &ops {
            match op {
                RcuOp::Snapshot => snapshots.push(rcu.gp_state()),
                RcuOp::ReadSection => {
                    let g = reader.read_lock();
                    // The epoch never moves two steps while we are pinned.
                    let pinned_epoch = rcu.current_epoch();
                    std::hint::spin_loop();
                    prop_assert!(rcu.current_epoch() <= pinned_epoch + 1);
                    drop(g);
                }
                RcuOp::Synchronize => {
                    let before = rcu.current_epoch();
                    rcu.synchronize();
                    prop_assert!(rcu.current_epoch() >= before + 2);
                    // Every snapshot taken before this synchronize is now
                    // complete.
                    for s in &snapshots {
                        prop_assert!(rcu.poll(*s), "old snapshot incomplete after synchronize");
                    }
                }
                RcuOp::CallRcu => {
                    queued += 1;
                    domain.defer(client, queued as usize * 16);
                }
            }
            // Global epoch is monotone.
            let now = rcu.current_epoch();
            prop_assert!(now >= last_epoch, "epoch went backwards");
            last_epoch = now;
            // Snapshots are totally ordered by completion: if a later
            // snapshot completed, every earlier one has too.
            let mut complete_seen_from_back = false;
            for s in snapshots.iter().rev() {
                let done = s.is_completed_at(now);
                if complete_seen_from_back {
                    prop_assert!(done, "older snapshot incomplete while newer complete");
                }
                complete_seen_from_back |= done;
            }
        }
        // Synchronize drains every queued callback.
        domain.synchronize();
        prop_assert_eq!(counter.0.load(Ordering::SeqCst), queued);
        prop_assert_eq!(domain.deferred_in_domain(), 0);
        prop_assert_eq!(rcu.stats().callback_backlog, 0);
    }

    #[test]
    fn nested_guards_unpin_exactly_once(depth in 1usize..12) {
        let rcu = Rcu::with_config(RcuConfig::eager());
        let reader = rcu.register();
        let mut guards = Vec::new();
        for _ in 0..depth {
            guards.push(reader.read_lock());
        }
        prop_assert!(reader.in_critical_section());
        let state = rcu.gp_state();
        while guards.len() > 1 {
            guards.pop();
            prop_assert!(reader.in_critical_section());
        }
        guards.pop();
        prop_assert!(!reader.in_critical_section());
        rcu.synchronize();
        prop_assert!(rcu.poll(state));
    }
}
