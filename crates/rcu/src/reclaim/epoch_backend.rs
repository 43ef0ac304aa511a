//! The epoch backend: [`ReclamationDomain`] as a thin adapter over the
//! grace-period machinery the paper builds on.
//!
//! This backend exists so the trait has an honest baseline: deferred
//! addresses ride the classic `call_rcu` path (background reclaimers,
//! Linux-style batch throttling), and every progress/blocking operation
//! maps 1:1 onto the [`Rcu`] call the allocators used to make directly.
//! Its garbage is **unbounded** under a stalled reader — one pinned
//! thread wedges the epoch and with it every object deferred after the
//! pin. That is not a defect of the adapter but the property the robust
//! backends (`hp`, `hyaline`) are measured against.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

use super::{
    stamp_untracked, ClientId, ClientRegistry, ReclaimBackend, ReclaimClient, ReclaimStats,
    ReclamationDomain,
};
use crate::Rcu;

/// Epoch-based backend; see the module docs.
pub struct EpochDomain {
    rcu: Arc<Rcu>,
    /// Shared with the queued callbacks, which resolve their client at
    /// delivery time (as the robust backends' deliveries do) — `defer`
    /// itself never takes this lock.
    clients: Arc<ClientRegistry>,
}

impl EpochDomain {
    /// Wraps `rcu` as a [`ReclamationDomain`].
    pub fn new(rcu: Arc<Rcu>) -> Self {
        // Symmetric with the robust backends; epoch protection needs no
        // domain cooperation, so `protects_backend(Epoch)` is true for
        // every guard regardless of this mark.
        rcu.attach_backend(ReclaimBackend::Epoch);
        Self {
            rcu,
            clients: Arc::default(),
        }
    }
}

impl ReclamationDomain for EpochDomain {
    fn backend(&self) -> ReclaimBackend {
        ReclaimBackend::Epoch
    }

    fn rcu(&self) -> &Arc<Rcu> {
        &self.rcu
    }

    fn register_client(&self, client: Weak<dyn ReclaimClient>) -> ClientId {
        self.clients.register(client)
    }

    fn defer(&self, client: ClientId, addr: usize) {
        stamp_untracked(addr, pbs_telemetry::site::BACKEND_EPOCH);
        let clients = Arc::clone(&self.clients);
        self.rcu
            .call_rcu(Box::new(move || clients.deliver(client, &[addr])));
    }

    fn advance(&self) -> bool {
        let inner = self.rcu.inner();
        let before = inner.epoch.load(Ordering::Acquire);
        inner.try_advance() > before
    }

    fn synchronize(&self) {
        // A grace period alone does not run the queued callbacks; the
        // barrier semantics (every defer issued before this call has been
        // *returned*) are what the trait promises, so wait for the
        // reclaimers too when anything is queued.
        if self.rcu.callback_backlog() == 0 {
            self.rcu.synchronize();
        } else {
            self.rcu.barrier();
        }
    }

    fn synchronize_expedited(&self) {
        self.rcu.synchronize_expedited();
        if self.rcu.callback_backlog() > 0 {
            self.rcu.barrier();
        }
    }

    fn expedite(&self) -> bool {
        self.rcu.expedite()
    }

    fn deferred_in_domain(&self) -> usize {
        self.rcu.callback_backlog()
    }

    fn reclaim_stats(&self) -> ReclaimStats {
        let rcu = self.rcu.stats();
        ReclaimStats {
            backend: self.backend().label().to_owned(),
            deferred_in_domain: rcu.callback_backlog,
            // Epoch-side injected stalls live in RcuStats; mirrored here
            // so the comparison matrix reads one struct per backend.
            injected_stalls: rcu.injected_gp_stalls,
            ..ReclaimStats::default()
        }
    }
}

impl std::fmt::Debug for EpochDomain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochDomain")
            .field("backlog", &self.rcu.callback_backlog())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::RecordingClient;
    use super::*;
    use crate::RcuConfig;

    #[test]
    fn defer_returns_addresses_after_a_grace_period() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = EpochDomain::new(Arc::clone(&rcu));
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        for addr in [0x1000usize, 0x2000, 0x3000] {
            domain.defer(id, addr);
        }
        domain.synchronize();
        assert_eq!(domain.deferred_in_domain(), 0);
        let mut got = client.reclaimed.lock().clone();
        got.sort_unstable();
        assert_eq!(got, vec![0x1000, 0x2000, 0x3000]);
    }

    #[test]
    fn stalled_reader_wedges_the_epoch_backend() {
        // The documented bug the robust backends bound: a pinned reader
        // blocks every defer issued after its pin, without limit.
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = EpochDomain::new(Arc::clone(&rcu));
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        let reader = rcu.register();
        let guard = reader.read_lock();
        for addr in 1..=64usize {
            domain.defer(id, addr << 4);
        }
        // A bounded eager drive cannot complete a grace period.
        assert!(!domain.expedite());
        assert_eq!(client.count(), 0, "reclaimed under a pinned reader");
        assert_eq!(domain.deferred_in_domain(), 64);
        drop(guard);
        domain.synchronize();
        assert_eq!(client.count(), 64);
    }

    #[test]
    fn dead_clients_drop_their_addresses() {
        let rcu = Arc::new(Rcu::with_config(RcuConfig::eager()));
        let domain = EpochDomain::new(Arc::clone(&rcu));
        let client = Arc::new(RecordingClient::default());
        let id = domain.register_client(
            Arc::downgrade(&client) as Weak<dyn ReclaimClient>
        );
        domain.defer(id, 0xAB0);
        drop(client);
        domain.synchronize();
        assert_eq!(domain.deferred_in_domain(), 0);
    }
}
