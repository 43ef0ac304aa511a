//! Asymmetric memory barrier for the read-side pin protocol.
//!
//! The read-side fast path publishes its pin with a plain `Release` store;
//! something must still provide the StoreLoad ordering between that store
//! and the critical-section loads that follow it, or the grace-period
//! advancer can scan past a pin still sitting in the reader's store buffer
//! while the reader's (reordered) loads dereference memory the advancer
//! then reclaims. Two sound ways to get that ordering:
//!
//! * **Asymmetric** (the urcu "memb" flavour): readers issue only a
//!   compiler fence; the advancer calls
//!   `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)` before trusting its
//!   scan, which IPIs every CPU running this process and imposes a full
//!   barrier at a serialization point in each thread's instruction
//!   stream. Either a reader's pin store retired before that point (the
//!   scan sees it and the advance is refused) or it did not — in which
//!   case the reader's critical-section loads also re-execute after the
//!   barrier and therefore observe every unlink that preceded the
//!   reclamation decision, so they cannot find the reclaimed object.
//! * **Fallback**: readers issue a full `SeqCst` fence after every
//!   outermost pin, pairing with the advancer's pre-scan `SeqCst` fence —
//!   the classic symmetric SMR protocol.
//!
//! Which mode is in force is decided once per process, at the first query:
//! registration via `MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED` either
//! succeeds (kernel ≥ 4.14 on a supported arch) and every domain runs
//! asymmetric, or it fails and every reader pays the fence. The decision
//! never changes afterwards, so readers and advancers can never disagree
//! about who carries the ordering burden.
//!
//! The build environment has no crates registry (so no `libc`); the
//! syscall is issued directly via inline asm on the architectures we
//! support and reported unavailable elsewhere. Miri cannot execute
//! syscalls, so it always exercises the fallback protocol — which is the
//! one whose weak-memory behaviours Miri can actually explore.

use std::sync::atomic::{compiler_fence, fence, AtomicU8, Ordering};

const UNDECIDED: u8 = 0;
const ASYMMETRIC: u8 = 1;
const FALLBACK: u8 = 2;

static STRATEGY: AtomicU8 = AtomicU8::new(UNDECIDED);

/// The reader's half of the bargain, issued after every outermost pin and
/// every hazard publication: it orders that store before the loads that
/// follow (StoreLoad). A compiler fence when the advancer membarriers
/// before each scan — no hardware barrier on the fast path (the urcu
/// "memb" idiom) — and a full fence otherwise. Eliding it in fallback
/// mode (e.g. for same-epoch re-pins) is unsound: neither the advancer's
/// fence nor its RMW scan can observe a store still buffered behind
/// reordered critical-section loads.
#[inline]
pub(crate) fn reader_fence() {
    if readers_elide_fence() {
        compiler_fence(Ordering::SeqCst);
    } else {
        fence(Ordering::SeqCst);
    }
}

/// Whether readers may elide the hardware fence after pinning. Decided on
/// first call (by whichever side asks first) and constant thereafter.
#[inline]
pub(crate) fn readers_elide_fence() -> bool {
    match STRATEGY.load(Ordering::Relaxed) {
        ASYMMETRIC => true,
        FALLBACK => false,
        _ => decide(),
    }
}

#[cold]
fn decide() -> bool {
    let asymmetric = sys::register();
    // compare_exchange so concurrent first callers agree even if the
    // syscall raced (register is idempotent; both would get the same
    // answer, but take no chances).
    let decided = if asymmetric { ASYMMETRIC } else { FALLBACK };
    match STRATEGY.compare_exchange(UNDECIDED, decided, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => asymmetric,
        Err(prev) => prev == ASYMMETRIC,
    }
}

/// Forces the fallback (symmetric-fence) protocol for the whole process,
/// for fault-injection and portability testing. Returns `true` if the
/// process is now in fallback mode; `false` means the asymmetric protocol
/// was already decided (readers are eliding fences, so flipping would be
/// unsound — the decision is immutable once made).
pub(crate) fn force_fallback() -> bool {
    match STRATEGY.compare_exchange(UNDECIDED, FALLBACK, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => true,
        Err(prev) => prev == FALLBACK,
    }
}

/// The advancer's side of the asymmetric bargain: a process-wide expedited
/// barrier, issued after its own `SeqCst` fence and before the registry
/// scan (`Registry::barrier_then_scan`, its one caller). A no-op in
/// fallback mode (readers already fence themselves).
///
/// # Panics
///
/// Panics if the expedited barrier fails after registration succeeded:
/// readers have already been told to skip their fences, so continuing
/// without the barrier would be unsound — and the kernel contract is that
/// `PRIVATE_EXPEDITED` cannot fail once registered.
pub(crate) fn heavy_barrier() {
    if readers_elide_fence() && !sys::barrier() {
        panic!("membarrier(PRIVATE_EXPEDITED) failed after successful registration");
    }
}

#[cfg(all(target_os = "linux", not(miri), any(target_arch = "x86_64", target_arch = "aarch64")))]
mod sys {
    #[cfg(target_arch = "x86_64")]
    const SYS_MEMBARRIER: i64 = 324;
    #[cfg(target_arch = "aarch64")]
    const SYS_MEMBARRIER: i64 = 283;

    const CMD_PRIVATE_EXPEDITED: i64 = 1 << 3;
    const CMD_REGISTER_PRIVATE_EXPEDITED: i64 = 1 << 4;

    #[cfg(target_arch = "x86_64")]
    fn membarrier(cmd: i64) -> i64 {
        let ret: i64;
        // SAFETY: membarrier(2) takes (cmd, flags, cpu_id) and touches no
        // user memory; rcx/r11 are the registers the syscall instruction
        // clobbers.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MEMBARRIER => ret,
                in("rdi") cmd,
                in("rsi") 0i64, // flags
                in("rdx") 0i64, // cpu_id (unused without the CPU flag)
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    #[cfg(target_arch = "aarch64")]
    fn membarrier(cmd: i64) -> i64 {
        let ret: i64;
        // SAFETY: as above; aarch64 passes the syscall number in x8 and
        // returns in x0.
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") SYS_MEMBARRIER,
                inlateout("x0") cmd => ret,
                in("x1") 0i64,
                in("x2") 0i64,
                options(nostack),
            );
        }
        ret
    }

    /// Registers the process for private expedited barriers. Failure (old
    /// kernel, seccomp, nommu) selects the fallback protocol.
    pub(super) fn register() -> bool {
        membarrier(CMD_REGISTER_PRIVATE_EXPEDITED) == 0
    }

    /// Issues a private expedited barrier; `true` on success.
    pub(super) fn barrier() -> bool {
        membarrier(CMD_PRIVATE_EXPEDITED) == 0
    }
}

#[cfg(not(all(target_os = "linux", not(miri), any(target_arch = "x86_64", target_arch = "aarch64"))))]
mod sys {
    pub(super) fn register() -> bool {
        false
    }

    pub(super) fn barrier() -> bool {
        // Unreachable: `heavy_barrier` only calls this when registration
        // succeeded, which it never does here.
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_is_stable_and_barrier_matches() {
        let first = readers_elide_fence();
        for _ in 0..4 {
            assert_eq!(readers_elide_fence(), first, "strategy changed");
            // Must not panic in either mode: asymmetric issues a real
            // barrier, fallback is a no-op.
            heavy_barrier();
            reader_fence();
        }
    }

    #[cfg(all(target_os = "linux", not(miri), target_arch = "x86_64"))]
    #[test]
    fn linux_x86_64_supports_expedited_membarrier() {
        // The CI and dev kernels are all ≥ 4.14; if this starts failing
        // the read side silently loses its fast path, so surface it.
        assert!(
            readers_elide_fence(),
            "expected membarrier(PRIVATE_EXPEDITED) support on this kernel"
        );
    }
}
