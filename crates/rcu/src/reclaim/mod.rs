//! Pluggable memory-reclamation backends (`ReclamationDomain`).
//!
//! The paper's prudence scheme inherits epoch RCU's classic failure mode:
//! one stalled reader pins the epoch and every object deferred after its
//! pin stays dead-but-unreusable *forever* — the PR 5 watchdog can report
//! the stall but not bound the garbage. This module extracts the
//! reclamation contract the allocators actually rely on into a trait and
//! provides three interchangeable backends:
//!
//! | backend   | mechanism                         | garbage bound under one stalled reader |
//! |-----------|-----------------------------------|----------------------------------------|
//! | `epoch`   | grace periods + a `call_rcu` queue | **unbounded** (the bug, kept as the baseline) |
//! | `hp`      | hazard pointers, scan-on-threshold| `scan_threshold + threads × HP_SLOTS`  |
//! | `hyaline` | reference-tracked batches + ejection | `batch_size + defer-rate × eject_after` |
//!
//! Selection mirrors the `PBS_FASTPATH` pattern: `PBS_RECLAIM=epoch|hp|
//! hyaline` picks the backend new testbeds construct, parsed once per
//! process ([`ReclaimBackend::from_env`]); anything else aborts.
//!
//! ## Reader contracts
//!
//! The backends deliberately share the [`Rcu`] reader registry, so one
//! `read_lock` fast path serves all three — but what a critical section
//! *means* differs:
//!
//! * `epoch` — a pinned reader keeps every object it could have reached
//!   alive. Guard-only traversal is safe (the paper's model).
//! * `hp` — a pin keeps nothing alive by itself; only a published and
//!   re-validated hazard ([`RcuThread::protect`]) does.
//! * `hyaline` — a pin keeps alive everything retired *while it was
//!   pinned* (batch capture), unless the reader stalls past the ejection
//!   threshold while blocking sealed batches, in which case its capture
//!   is revoked and it must re-validate ([`ReadGuard::validate`]) before
//!   trusting earlier reads.
//!
//! Pointer-chasing readers don't implement these contracts by hand:
//! [`ReadGuard::walk`] (see [`crate::traverse`]) dispatches on a
//! [`TraversalKind`] derived from the backend and performs the per-hop
//! protection — plain loads under `epoch`, hazard publish + revalidate
//! under `hp`, per-hop ejection checks with retry-from-root under
//! `hyaline`. Structures that retire nodes under a robust backend must
//! poison the retired node's outgoing links
//! ([`crate::traverse::poison_link`]) so a walker parked on a retired
//! node cannot follow a stale pointer past a second, invisible unlink.
//!
//! [`RcuThread::protect`]: crate::RcuThread::protect
//! [`ReadGuard::validate`]: crate::ReadGuard::validate
//! [`ReadGuard::walk`]: crate::ReadGuard::walk
//! [`TraversalKind`]: crate::TraversalKind

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use parking_lot::Mutex;

pub use crate::stats::ReclaimStats;
use crate::Rcu;

mod epoch_backend;
mod hp;
mod hyaline;

pub use epoch_backend::EpochDomain;
pub use hp::HpDomain;
pub use hyaline::HyalineDomain;

/// Names a [`ReclaimClient`] within one domain (dense index, assigned by
/// [`ReclamationDomain::register_client`]).
pub type ClientId = usize;

/// The cache-side half of the reclamation contract: a domain calls this
/// back when deferred objects have become safe to reuse.
///
/// Clients are held as [`Weak`] references — a domain never keeps a cache
/// alive, and addresses whose client has been dropped are discarded (the
/// cache's teardown path returns their slabs to the page allocator
/// wholesale, exactly as the SLUB baseline's dead-cache RCU callbacks
/// already behave).
pub trait ReclaimClient: Send + Sync {
    /// Returns objects (by address, as handed to
    /// [`ReclamationDomain::defer`]) to the owning cache, which settles
    /// their site stamps (`pbs_telemetry::site::note_reclaimed`) before
    /// any of them can be reused.
    ///
    /// Domains guarantee this is invoked with no domain-internal locks
    /// held, so the client may perform arbitrary cache work — but it must
    /// not call back into [`ReclamationDomain::defer`] for this domain
    /// from inside the callback.
    fn reclaim_addrs(&self, addrs: &[usize]);
}

/// The clients of one domain and the one route reclaimed addresses take
/// back to them, shared by all three backends.
#[derive(Default)]
pub(crate) struct ClientRegistry {
    clients: Mutex<Vec<Weak<dyn ReclaimClient>>>,
}

impl ClientRegistry {
    pub(crate) fn register(&self, client: Weak<dyn ReclaimClient>) -> ClientId {
        let mut clients = self.clients.lock();
        clients.push(client);
        clients.len() - 1
    }

    /// Returns every `(client, addr)` to its client, one
    /// [`ReclaimClient::reclaim_addrs`] call per client; call with no
    /// domain lock held (the [`ReclaimClient`] contract). A live client
    /// credits the addresses' site stamps itself, as it takes them back;
    /// the addresses of a client that is already gone are dropped, and
    /// credited here — the backend proved them reusable, so they count as
    /// reclaimed. Returns how many addresses were delivered.
    pub(crate) fn deliver(&self, items: impl IntoIterator<Item = (ClientId, usize)>) -> usize {
        let mut by_client: HashMap<ClientId, Vec<usize>> = HashMap::new();
        let mut total = 0;
        for (client, addr) in items {
            by_client.entry(client).or_default().push(addr);
            total += 1;
        }
        for (client, addrs) in by_client {
            let client = self.clients.lock().get(client).cloned();
            match client.and_then(|weak| weak.upgrade()) {
                Some(client) => client.reclaim_addrs(&addrs),
                None => {
                    for addr in addrs {
                        pbs_telemetry::site::note_reclaimed(addr);
                    }
                }
            }
        }
        total
    }
}

/// Whether the `reclaim.advance` fault site refuses this progress step of
/// a robust backend (a scan or a seal), counted in `stalls`. Refusing only
/// procrastinates — the work waits for a later attempt — which is what
/// makes the site safe to inject, the same argument as refusing an epoch
/// advance.
pub(crate) fn advance_refused(rcu: &Rcu, stalls: &AtomicU64) -> bool {
    let refused = rcu
        .config()
        .fault_injector
        .as_ref()
        .is_some_and(|faults| faults.should_fail(pbs_fault::site::RECLAIM_ADVANCE));
    if refused {
        stalls.fetch_add(1, Ordering::Relaxed);
    }
    refused
}

/// The robust backends' `synchronize`: runs `step` — a reclamation pass
/// that returns the oldest pending sequence — until nothing older than
/// `target` (the last sequence issued at entry) is left; later defers are
/// not the caller's business. Yields for the first rounds, then naps.
pub(crate) fn drain_prefix(target: u64, nap: Duration, mut step: impl FnMut() -> Option<u64>) {
    for round in 0u32.. {
        if step().is_none_or(|oldest| oldest > target) {
            return;
        }
        if round < 32 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(nap);
        }
    }
}

/// Which reclamation scheme a domain runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReclaimBackend {
    /// Epoch-based grace periods (the paper's scheme; unbounded garbage
    /// under a stalled reader).
    Epoch,
    /// Hazard pointers with scan-on-threshold retire lists.
    Hp,
    /// Hyaline-style reference-tracked batches with stalled-reader
    /// ejection.
    Hyaline,
}

impl ReclaimBackend {
    /// Every backend, in comparison-matrix order.
    pub const ALL: [ReclaimBackend; 3] =
        [ReclaimBackend::Epoch, ReclaimBackend::Hp, ReclaimBackend::Hyaline];

    /// Stable lowercase label (CLI flags, run metadata, reports).
    pub fn label(self) -> &'static str {
        match self {
            ReclaimBackend::Epoch => "epoch",
            ReclaimBackend::Hp => "hp",
            ReclaimBackend::Hyaline => "hyaline",
        }
    }

    /// Parses a `PBS_RECLAIM` value (`epoch` / `hp` / `hyaline`). Unset
    /// and empty both mean "no override"; a typo is an error rather than
    /// the default, so a misspelt CI matrix leg cannot silently test epoch
    /// and stay green.
    pub fn parse_env(value: Option<&str>) -> Result<Option<ReclaimBackend>, String> {
        match value {
            None | Some("") => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|e| format!("PBS_RECLAIM: {e}")),
        }
    }

    /// The process's `PBS_RECLAIM` override, read and parsed once.
    ///
    /// # Panics
    ///
    /// Panics, naming the accepted values, if the variable holds anything
    /// [`parse_env`](Self::parse_env) rejects.
    pub fn env_override() -> Option<ReclaimBackend> {
        static CHOICE: OnceLock<Option<ReclaimBackend>> = OnceLock::new();
        *CHOICE.get_or_init(|| {
            let raw = std::env::var_os("PBS_RECLAIM").map(|v| v.to_string_lossy().into_owned());
            Self::parse_env(raw.as_deref()).unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// The backend new testbeds select: the `PBS_RECLAIM` override, else
    /// [`Epoch`] (the paper's scheme stays the default).
    ///
    /// [`Epoch`]: ReclaimBackend::Epoch
    pub fn from_env() -> ReclaimBackend {
        Self::env_override().unwrap_or(ReclaimBackend::Epoch)
    }
}

impl fmt::Display for ReclaimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ReclaimBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "epoch" => Ok(ReclaimBackend::Epoch),
            "hp" => Ok(ReclaimBackend::Hp),
            "hyaline" => Ok(ReclaimBackend::Hyaline),
            other => Err(format!(
                "unknown reclamation backend {other:?} (expected epoch|hp|hyaline)"
            )),
        }
    }
}

/// Tuning knobs of the robust backends; irrelevant fields are ignored by
/// the backend that doesn't use them.
#[derive(Debug, Clone)]
pub struct ReclaimConfig {
    /// `hp`: retire-list length that triggers a scan. The scan is what
    /// bounds the garbage, so this is the dominant term of the hp bound.
    pub scan_threshold: usize,
    /// `hyaline`: deferred objects per batch before the batch seals and
    /// captures its reader reference set.
    pub batch_size: usize,
    /// `hyaline`: how long a reader may stay continuously pinned *while
    /// blocking sealed batches* before its capture is revoked
    /// (ejection). Must comfortably exceed every legitimate critical
    /// section; readers that can stall longer must re-validate
    /// ([`ReadGuard::validate`](crate::ReadGuard::validate)).
    pub eject_after: Duration,
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        Self {
            scan_threshold: 256,
            batch_size: 64,
            eject_after: Duration::from_secs(1),
        }
    }
}

impl ReclaimConfig {
    /// A tight configuration for harnesses that need ejections and scans
    /// within milliseconds (chaos scenarios, property tests).
    pub fn aggressive() -> Self {
        Self {
            scan_threshold: 64,
            batch_size: 16,
            eject_after: Duration::from_millis(2),
        }
    }
}

/// The reclamation contract both allocators program against: pin/unpin
/// arrive via the shared [`Rcu`] reader registration, everything else —
/// deferral, progress, blocking drains, stats — goes through this trait.
///
/// Object-safe on purpose: caches hold `Arc<dyn ReclamationDomain>` and
/// the backend is chosen at runtime.
pub trait ReclamationDomain: Send + Sync {
    /// Which scheme this domain runs.
    fn backend(&self) -> ReclaimBackend;

    /// The underlying synchronization domain. All backends share it: it
    /// provides reader registration (pin/unpin), the reader registry the
    /// robust backends scan, and the epoch machinery the `epoch` backend
    /// is made of.
    fn rcu(&self) -> &Arc<Rcu>;

    /// Registers a reclamation client; the returned id names it in
    /// [`defer`](Self::defer).
    fn register_client(&self, client: Weak<dyn ReclaimClient>) -> ClientId;

    /// Hands one retired object to the domain. The caller must already
    /// have unlinked the object (no *new* reader can reach it); the
    /// domain invokes [`ReclaimClient::reclaim_addrs`] once the backend
    /// proves no captured reader can still hold it. The domain keeps no
    /// attribution of its own: the allocator stamps before it defers, and
    /// settles the stamp when the object comes back.
    fn defer(&self, client: ClientId, addr: usize);

    /// One bounded reclamation-progress step (epoch-advance attempt,
    /// retire-list scan, or batch seal + release pass). Never blocks on
    /// readers; returns whether anything progressed. This is the hook
    /// pressure ladders and harness drive loops call.
    fn advance(&self) -> bool;

    /// Blocks until every object deferred *before* this call has been
    /// returned to its client (the backend-generic `synchronize`). Like
    /// [`Rcu::synchronize`], must not be called from inside a read-side
    /// critical section of the same domain.
    fn synchronize(&self);

    /// [`synchronize`](Self::synchronize) with an eager first drive —
    /// the generalization of [`Rcu::synchronize_expedited`] the OOM
    /// recovery ladder calls. Backends whose progress steps are already
    /// eager (scans, seals) have no passive mode to expedite.
    fn synchronize_expedited(&self) {
        self.synchronize();
    }

    /// Bounded eager drive toward reclamation progress; never blocks
    /// indefinitely (safe with a stalled reader wedging the domain).
    /// Returns whether the drive made progress. Backpressure
    /// transitions call this. Defaults to one [`advance`](Self::advance).
    fn expedite(&self) -> bool {
        self.advance()
    }

    /// Objects deferred into the domain and not yet returned.
    fn deferred_in_domain(&self) -> usize;

    /// Statistics snapshot.
    fn reclaim_stats(&self) -> ReclaimStats;
}

/// A cache's attachment to its domain: the domain handle and the cache's
/// client id within it.
pub struct DomainHandle {
    /// The attached domain.
    pub domain: Arc<dyn ReclamationDomain>,
    /// This cache's client id within [`domain`](Self::domain).
    pub client: ClientId,
}

impl DomainHandle {
    /// Registers `client` with `domain` and wraps both.
    pub fn attach(domain: Arc<dyn ReclamationDomain>, client: Weak<dyn ReclaimClient>) -> Self {
        let client = domain.register_client(client);
        Self { domain, client }
    }
}

impl fmt::Debug for DomainHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DomainHandle")
            .field("backend", &self.domain.backend())
            .field("client", &self.client)
            .finish()
    }
}

/// Constructs the backend selected by `backend` over `rcu`.
pub fn domain_for(
    rcu: Arc<Rcu>,
    backend: ReclaimBackend,
    config: ReclaimConfig,
) -> Arc<dyn ReclamationDomain> {
    match backend {
        ReclaimBackend::Epoch => Arc::new(EpochDomain::new(rcu)),
        ReclaimBackend::Hp => Arc::new(HpDomain::new(rcu, config)),
        ReclaimBackend::Hyaline => Arc::new(HyalineDomain::new(rcu, config)),
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// A client that records every reclaimed address, for backend unit
    /// tests.
    #[derive(Default)]
    pub(crate) struct RecordingClient {
        pub(crate) reclaimed: Mutex<Vec<usize>>,
    }

    impl ReclaimClient for RecordingClient {
        fn reclaim_addrs(&self, addrs: &[usize]) {
            self.reclaimed.lock().extend_from_slice(addrs);
        }
    }

    impl RecordingClient {
        pub(crate) fn count(&self) -> usize {
            self.reclaimed.lock().len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_round_trip() {
        for backend in ReclaimBackend::ALL {
            assert_eq!(backend.label().parse::<ReclaimBackend>(), Ok(backend));
            assert_eq!(backend.to_string(), backend.label());
        }
        assert!("garbage".parse::<ReclaimBackend>().is_err());
        assert_eq!(" HP ".parse::<ReclaimBackend>(), Ok(ReclaimBackend::Hp));
    }

    #[test]
    fn env_values_parse_strictly() {
        assert_eq!(ReclaimBackend::parse_env(None), Ok(None));
        assert_eq!(ReclaimBackend::parse_env(Some("")), Ok(None));
        for backend in ReclaimBackend::ALL {
            assert_eq!(ReclaimBackend::parse_env(Some(backend.label())), Ok(Some(backend)));
        }
        let err = ReclaimBackend::parse_env(Some("hyalin")).unwrap_err();
        assert!(err.contains("epoch|hp|hyaline"), "accepted values named: {err}");
    }

    #[test]
    fn domain_for_constructs_every_backend() {
        for backend in ReclaimBackend::ALL {
            let rcu = Arc::new(Rcu::with_config(crate::RcuConfig::eager()));
            let domain = domain_for(rcu, backend, ReclaimConfig::default());
            assert_eq!(domain.backend(), backend);
            assert_eq!(domain.deferred_in_domain(), 0);
            assert_eq!(domain.reclaim_stats().backend, backend.label());
        }
    }
}
