//! # pbs-fault — deterministic fault injection for the reclamation stack
//!
//! The paper's headline robustness claim is that Prudence *waits on
//! deferred objects instead of failing* under memory pressure (Algorithm 1
//! lines 31–33). The OOM and stall paths that claim rests on are exactly
//! the paths ordinary workloads never reach; this crate makes them
//! reachable **on demand and reproducibly**.
//!
//! A [`FaultInjector`] holds site-tagged [`Schedule`]s. Instrumented code
//! (the page allocator's block allocation, the RCU grace-period advancer)
//! asks [`should_fail`](FaultInjector::should_fail) at each *fault site*;
//! the injector answers from the schedule and a seeded hash, so a run is
//! reproduced by replaying its seed. Sites without a schedule always
//! answer "no" but still count consults, so a harness can audit which
//! sites a workload actually reached.
//!
//! Determinism: every decision is a pure function of `(seed, site,
//! per-site call index)`. Thread interleavings may assign call indices to
//! different logical operations between runs, but the *sequence* of
//! decisions per site is identical for a given seed, which is what makes
//! chaos-run failures replayable.
//!
//! # Example
//!
//! ```
//! use pbs_fault::{FaultInjector, Schedule};
//!
//! let inj = FaultInjector::new(42);
//! inj.schedule("mem.page_alloc", Schedule::Nth(2));
//! assert!(!inj.should_fail("mem.page_alloc")); // call 1
//! assert!(inj.should_fail("mem.page_alloc"));  // call 2: injected
//! assert!(!inj.should_fail("mem.page_alloc")); // Nth fires once
//! assert_eq!(inj.injected("mem.page_alloc"), 1);
//! assert_eq!(inj.calls("mem.page_alloc"), 3);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

/// Canonical fault-site tags used by the instrumented crates.
///
/// The tags are plain strings so instrumented code does not need to depend
/// on this module, but every site wired in this workspace is listed here
/// so harnesses have one vocabulary to schedule against.
pub mod site {
    /// Any block allocation in `pbs_mem::PageAllocator` (catch-all: a
    /// schedule here fires for every tagged call site as well).
    pub const PAGE_ALLOC: &str = "mem.page_alloc";
    /// A slab cache growing by one slab (`GROW`, Algorithm line 29) —
    /// either allocator, since both run the one slab engine.
    pub const SLAB_GROW: &str = "slab.grow";
    /// One reclamation-progress step in any backend: a grace-period
    /// advance attempt in `pbs_rcu`, a hazard-pointer scan or a
    /// Hyaline-style batch seal. An injected fault refuses the step, which
    /// only procrastinates reclamation and is therefore always safe to
    /// inject; one schedule starves every backend at the same rate.
    pub const RECLAIM_ADVANCE: &str = "reclaim.advance";
    /// Consulted by both caches' refill slow paths. Each injected fault
    /// flips the per-CPU fast path live — off (draining parked objects
    /// back to the regular caches) when it is on, back on otherwise — so
    /// harnesses can prove mid-run switchover is leak-free and
    /// accounting-balanced.
    pub const FASTPATH_DISABLE: &str = "fastpath.disable";
    /// One simulated TCP accept in `pbs_simnet::SimNet::connect`. An
    /// injected fault refuses the handshake (SYN drop) before any slab
    /// traffic happens, so churn harnesses can race connection setup
    /// against refusals without leaking half-built connections.
    pub const NET_ACCEPT: &str = "net.accept";
    /// One simulated socket read in `pbs_simnet::SimNet`'s request paths.
    /// An injected fault models a peer that stops sending mid-request
    /// (slowloris): the read returns would-block and the connection stays
    /// open, pinning its server-side state until a deadline evicts it.
    pub const NET_READ_STALL: &str = "net.read_stall";
}

/// When a site's faults fire. Call indices are 1-based and per site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fail exactly the `n`th consult of the site, once.
    Nth(u64),
    /// Fail every `k`th consult (`k`, `2k`, …). `EveryKth(1)` is a total
    /// blackout.
    EveryKth(u64),
    /// Fail each consult independently with probability `p`, decided by a
    /// hash of `(seed, site, call index)` — deterministic per index.
    Probability(f64),
}

impl Schedule {
    fn fires(&self, seed: u64, site_hash: u64, call: u64) -> bool {
        match *self {
            Schedule::Nth(n) => call == n,
            Schedule::EveryKth(k) => k > 0 && call.is_multiple_of(k),
            Schedule::Probability(p) => {
                if p <= 0.0 {
                    return false;
                }
                if p >= 1.0 {
                    return true;
                }
                let unit = (splitmix64(seed ^ site_hash ^ call.wrapping_mul(0x9E37_79B9))
                    >> 11) as f64
                    * (1.0 / (1u64 << 53) as f64);
                unit < p
            }
        }
    }
}

/// Per-site consult/injection accounting plus its schedules.
#[derive(Debug, Default)]
struct SiteState {
    schedules: Vec<Schedule>,
    calls: AtomicU64,
    injected: AtomicU64,
}

/// Accounting for one site, as returned by [`FaultInjector::report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteReport {
    /// The site tag.
    pub site: String,
    /// Total consults of the site (including non-failing ones).
    pub calls: u64,
    /// Consults that were answered with an injected fault.
    pub injected: u64,
}

/// A seeded, site-tagged fault plan shared by every instrumented layer of
/// one run. See the [crate docs](crate) for the model.
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    sites: RwLock<HashMap<&'static str, SiteState>>,
}

impl FaultInjector {
    /// Creates an injector with no schedules; every site answers "no
    /// fault" until [`schedule`](Self::schedule) arms it.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sites: RwLock::new(HashMap::new()),
        }
    }

    /// The seed this injector decides with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Arms `site` with an additional schedule. A site may carry several;
    /// a consult fails when *any* of them fires.
    pub fn schedule(&self, site: &'static str, schedule: Schedule) {
        self.sites
            .write()
            .entry(site)
            .or_default()
            .schedules
            .push(schedule);
    }

    /// One consult of `site`: counts the call and answers whether the
    /// instrumented operation must fail now.
    ///
    /// Sites other than [`site::PAGE_ALLOC`] that contain a `.` fall back
    /// to the catch-all [`site::PAGE_ALLOC`] consult **only** when the
    /// caller is the page allocator (the allocator consults the specific
    /// tag; the catch-all consult is issued by the allocator itself — see
    /// `PageAllocator::allocate_aligned_at`). This method never blocks
    /// beyond a short map lock.
    pub fn should_fail(&self, site: &'static str) -> bool {
        // Fast path: site already known.
        {
            let sites = self.sites.read();
            if let Some(state) = sites.get(site) {
                return self.consult(site, state);
            }
        }
        // First consult of an unscheduled site: register it so `report`
        // lists the coverage even when nothing is armed there.
        let mut sites = self.sites.write();
        let state = sites.entry(site).or_default();
        state.calls.fetch_add(1, Ordering::Relaxed);
        false
    }

    fn consult(&self, site: &'static str, state: &SiteState) -> bool {
        let call = state.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let site_hash = fnv1a(site);
        let fired = state
            .schedules
            .iter()
            .any(|s| s.fires(self.seed, site_hash, call));
        if fired {
            state.injected.fetch_add(1, Ordering::Relaxed);
        }
        fired
    }

    /// Consults of `site` so far (0 if never consulted).
    pub fn calls(&self, site: &str) -> u64 {
        self.sites
            .read()
            .get(site)
            .map_or(0, |s| s.calls.load(Ordering::Relaxed))
    }

    /// Faults injected at `site` so far.
    pub fn injected(&self, site: &str) -> u64 {
        self.sites
            .read()
            .get(site)
            .map_or(0, |s| s.injected.load(Ordering::Relaxed))
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.sites
            .read()
            .values()
            .map(|s| s.injected.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-site accounting, sorted by site tag for stable output.
    pub fn report(&self) -> Vec<SiteReport> {
        let mut out: Vec<SiteReport> = self
            .sites
            .read()
            .iter()
            .map(|(site, s)| SiteReport {
                site: (*site).to_owned(),
                calls: s.calls.load(Ordering::Relaxed),
                injected: s.injected.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by(|a, b| a.site.cmp(&b.site));
        out
    }
}

/// SplitMix64 — one full avalanche round; enough to decorrelate
/// `(seed, site, call)` triples for probabilistic schedules.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the site tag, mixing the site into the decision hash.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unscheduled_sites_never_fail_but_are_counted() {
        let inj = FaultInjector::new(7);
        for _ in 0..10 {
            assert!(!inj.should_fail("mem.page_alloc"));
        }
        assert_eq!(inj.calls("mem.page_alloc"), 10);
        assert_eq!(inj.injected("mem.page_alloc"), 0);
        assert_eq!(inj.report().len(), 1);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let inj = FaultInjector::new(1);
        inj.schedule("s", Schedule::Nth(3));
        let fired: Vec<bool> = (0..6).map(|_| inj.should_fail("s")).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(inj.injected("s"), 1);
    }

    #[test]
    fn every_kth_fires_periodically() {
        let inj = FaultInjector::new(1);
        inj.schedule("s", Schedule::EveryKth(4));
        let fired = (0..12).filter(|_| inj.should_fail("s")).count();
        assert_eq!(fired, 3);
    }

    #[test]
    fn blackout_fails_every_call() {
        let inj = FaultInjector::new(1);
        inj.schedule("s", Schedule::EveryKth(1));
        assert!((0..5).all(|_| inj.should_fail("s")));
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let a = FaultInjector::new(99);
        let b = FaultInjector::new(99);
        let c = FaultInjector::new(100);
        for inj in [&a, &b, &c] {
            inj.schedule("s", Schedule::Probability(0.3));
        }
        let da: Vec<bool> = (0..256).map(|_| a.should_fail("s")).collect();
        let db: Vec<bool> = (0..256).map(|_| b.should_fail("s")).collect();
        let dc: Vec<bool> = (0..256).map(|_| c.should_fail("s")).collect();
        assert_eq!(da, db, "same seed must replay the same decisions");
        assert_ne!(da, dc, "different seeds should diverge");
        let rate = da.iter().filter(|f| **f).count();
        assert!((32..160).contains(&rate), "p=0.3 over 256 draws: {rate}");
    }

    #[test]
    fn probability_extremes() {
        let inj = FaultInjector::new(5);
        inj.schedule("never", Schedule::Probability(0.0));
        inj.schedule("always", Schedule::Probability(1.0));
        assert!((0..20).all(|_| !inj.should_fail("never")));
        assert!((0..20).all(|_| inj.should_fail("always")));
    }

    #[test]
    fn multiple_schedules_union() {
        let inj = FaultInjector::new(1);
        inj.schedule("s", Schedule::Nth(1));
        inj.schedule("s", Schedule::EveryKth(3));
        let fired: Vec<bool> = (0..6).map(|_| inj.should_fail("s")).collect();
        assert_eq!(fired, vec![true, false, true, false, false, true]);
    }

    #[test]
    fn concurrent_consults_account_exactly() {
        let inj = Arc::new(FaultInjector::new(3));
        inj.schedule("s", Schedule::EveryKth(2));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let inj = Arc::clone(&inj);
                std::thread::spawn(move || {
                    (0..1000).filter(|_| inj.should_fail("s")).count() as u64
                })
            })
            .collect();
        let observed: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(inj.calls("s"), 4000);
        assert_eq!(inj.injected("s"), 2000);
        assert_eq!(observed, 2000, "every injection was observed by a caller");
    }

    #[test]
    fn report_is_sorted_and_complete() {
        let inj = FaultInjector::new(1);
        inj.schedule("b", Schedule::Nth(1));
        inj.schedule("a", Schedule::Nth(1));
        inj.should_fail("b");
        inj.should_fail("a");
        inj.should_fail("c");
        let r = inj.report();
        let names: Vec<&str> = r.iter().map(|s| s.site.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(inj.total_injected(), 2);
    }
}
