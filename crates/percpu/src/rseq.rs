//! The rseq(2) engine: glibc area discovery, the membarrier rseq fence,
//! and the two assembly critical sections (pop/push commit points).
//!
//! ## Protocol
//!
//! Each critical section is registered with the kernel through the
//! thread's rseq area (`area + 8` holds a pointer to the descriptor
//! while the section runs). The kernel guarantees that if the thread is
//! preempted, migrated, or takes a signal while its instruction pointer
//! is inside `[start_ip, start_ip + post_commit_offset)`, control
//! resumes at `abort_ip` instead — so everything before the single
//! commit store is free to be re-run, and the commit store itself is the
//! linearization point. The sections here:
//!
//! * validate the running CPU against the slot the caller picked,
//! * re-check the slot's mode word (a remote drain parks the slot in
//!   `MODE_OFF` *before* issuing the fence, so a section that started
//!   earlier either aborts on the fence or already committed),
//! * read the commit word and mask its depth (low 16 bits) out of it,
//!   read/write the item at `items[depth-1]` / `items[depth]` (a dead
//!   slot either way), and
//! * commit with one plain store of the commit word: `word - 1` for a
//!   pop, `word + 0x1_0001` for a push, whose high 48 bits count the
//!   slot's pushes so the commit is also the hit's statistic.
//!
//! Aborts restart from scratch; nothing observable happened. The only
//! stores before the commit are to the dead item slot, which a
//! concurrent remote drain never reads (it reads `0..depth` only) and
//! a same-CPU successor section overwrites before its own commit.
//!
//! ## Fence
//!
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED_RSEQ)` interrupts every
//! CPU running this process and restarts any in-flight critical
//! section. After `mode := OFF; fence()`, no rseq commit can land: a
//! section that read the old mode was aborted by the fence, and any new
//! section re-reads the mode inside its window and bails. This is the
//! same expedited-membarrier machinery the RCU grace-period advancer
//! uses against compiler-fence-only readers — one registration covers
//! the process.

#[cfg(all(pbs_rseq, not(miri)))]
mod imp {
    use std::sync::atomic::{AtomicU8, Ordering};

    use crate::SlotHdr;

    // glibc ≥ 2.35 registers an rseq area for every thread and exports
    // its location relative to the thread pointer (fs base on x86-64).
    // `__rseq_size == 0` means registration is disabled (old kernel or
    // glibc tunable) and the engine must not run.
    extern "C" {
        static __rseq_offset: isize;
        static __rseq_size: u32;
    }

    const SYS_MEMBARRIER: i64 = 324;
    const MEMBARRIER_CMD_PRIVATE_EXPEDITED_RSEQ: i64 = 1 << 7;
    const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED_RSEQ: i64 = 1 << 8;

    fn membarrier(cmd: i64) -> i64 {
        let ret: i64;
        // SAFETY: well-formed membarrier syscall; no memory is passed.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MEMBARRIER => ret,
                in("rdi") cmd,
                in("rsi") 0,
                in("rdx") 0,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// 0 = unprobed, 1 = rseq + fence available, 2 = unavailable.
    static SUPPORT: AtomicU8 = AtomicU8::new(0);

    pub(crate) fn supported() -> bool {
        match SUPPORT.load(Ordering::Acquire) {
            1 => true,
            2 => false,
            _ => probe(),
        }
    }

    #[cold]
    fn probe() -> bool {
        // SAFETY: reading a glibc-initialized extern static.
        let registered = unsafe { __rseq_size } >= 20;
        // The engine is only safe with the rseq fence (remote drains
        // rely on it), so its registration gates the whole engine.
        let ok = registered && membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED_RSEQ) == 0;
        SUPPORT.store(if ok { 1 } else { 2 }, Ordering::Release);
        ok
    }

    /// Restarts every in-flight rseq critical section in this process.
    /// No-op when the engine never probed available (nothing to fence).
    pub(crate) fn fence() {
        if supported() {
            let ret = membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED_RSEQ);
            assert_eq!(
                ret, 0,
                "rseq membarrier fence failed after successful registration"
            );
        }
    }

    /// This thread's rseq area (kernel-updated `cpu_id` at +4,
    /// `rseq_cs` pointer at +8).
    #[inline]
    pub(crate) fn area() -> *mut u8 {
        let tp: *mut u8;
        // SAFETY: reads the thread pointer from the TCB self-pointer at
        // fs:0 (x86-64 SysV TLS ABI).
        unsafe {
            std::arch::asm!(
                "mov {}, qword ptr fs:[0]",
                out(reg) tp,
                options(nostack, preserves_flags, readonly),
            );
        }
        // SAFETY: glibc guarantees the area lives at this offset for
        // every thread once __rseq_size > 0 (checked in `supported`).
        unsafe { tp.offset(__rseq_offset) }
    }

    /// The CPU this thread is running on, as maintained by the kernel.
    /// `u32::MAX` when the thread is not registered.
    #[inline]
    pub(crate) fn current_cpu(area: *mut u8) -> u32 {
        // SAFETY: in-bounds field of the registered rseq area; volatile
        // because the kernel writes it asynchronously.
        unsafe { (area.add(4) as *const u32).read_volatile() }
    }

    extern "C" {
        fn pbs_percpu_rseq_pop(area: *mut u8, cpu: u32, slot: *const SlotHdr) -> usize;
        fn pbs_percpu_rseq_push(area: *mut u8, cpu: u32, slot: *const SlotHdr, obj: usize)
            -> usize;
    }

    /// Pop commit point. Returns the object address, or 0 = empty,
    /// 1 = restart (preempted/migrated/aborted), 2 = slot not in rseq
    /// mode.
    ///
    /// # Safety
    ///
    /// `area` must be this thread's registered rseq area and `slot` a
    /// live [`SlotHdr`] whose index equals `cpu`.
    #[inline]
    pub(crate) unsafe fn pop(area: *mut u8, cpu: u32, slot: &SlotHdr) -> usize {
        pbs_percpu_rseq_pop(area, cpu, slot)
    }

    /// Push commit point. Returns 0 = pushed, 1 = restart, 2 = slot not
    /// in rseq mode, 3 = full.
    ///
    /// # Safety
    ///
    /// As for [`pop`]; `obj` must be a real object address (> 3).
    #[inline]
    pub(crate) unsafe fn push(area: *mut u8, cpu: u32, slot: &SlotHdr, obj: usize) -> usize {
        pbs_percpu_rseq_push(area, cpu, slot, obj)
    }

    // SlotHdr layout contract shared with the assembly below:
    //   +0  commit  (u64)   — the commit word: depth in bits 0..16, pushes
    //                         committed in bits 16..64
    //   +8  cap     (u64)   — at most 0xFFFF, so a push never carries
    //                         out of the depth field
    //   +16 mode    (u32)   — must equal 1 (MODE_RSEQ) to commit
    //   +24 items   (*mut usize)
    //
    // rseq ABI: area+4 = cpu_id (u32), area+8 = rseq_cs (u64 pointer to
    // the descriptor). The descriptor is {version, flags, start_ip,
    // post_commit_offset, abort_ip}, 32-byte aligned, and the four bytes
    // before abort_ip must hold the glibc signature 0x53053053.
    std::arch::global_asm!(
        r#"
        .pushsection .text
        .p2align 4
        .globl pbs_percpu_rseq_pop
        .type pbs_percpu_rseq_pop, @function
    pbs_percpu_rseq_pop:
        lea rax, [rip + 100f]
        mov qword ptr [rdi + 8], rax     // arm: area->rseq_cs = descriptor
    1:                                   // start_ip
        mov eax, dword ptr [rdi + 4]     // kernel-maintained cpu_id
        cmp eax, esi
        jne 4f                           // migrated since the caller looked
        mov eax, dword ptr [rdx + 16]    // slot mode
        cmp eax, 1
        jne 5f                           // parked or lock-owned
        mov rax, qword ptr [rdx]         // commit word
        movzx r8d, ax                    // depth
        test r8d, r8d
        jz 6f                            // empty
        mov r9, qword ptr [rdx + 24]     // items
        mov r10, qword ptr [r9 + r8*8 - 8] // items[depth-1] (pre-commit read)
        sub rax, 1
        mov qword ptr [rdx], rax         // COMMIT: depth -= 1
    2:                                   // post-commit
        mov qword ptr [rdi + 8], 0
        mov rax, r10
        ret
    4:  mov qword ptr [rdi + 8], 0
        mov eax, 1
        ret
    5:  mov qword ptr [rdi + 8], 0
        mov eax, 2
        ret
    6:  mov qword ptr [rdi + 8], 0
        xor eax, eax
        ret
        .balign 4
        .long 0x53053053                 // abort signature (glibc RSEQ_SIG)
    3:                                   // abort_ip: kernel lands here on restart
        mov qword ptr [rdi + 8], 0
        mov eax, 1
        ret
        .size pbs_percpu_rseq_pop, . - pbs_percpu_rseq_pop
        .pushsection .data.rel.ro, "aw"
        .balign 32
    100:                                 // struct rseq_cs
        .long 0, 0                       // version, flags
        .quad 1b                         // start_ip
        .quad 2b - 1b                    // post_commit_offset
        .quad 3b                         // abort_ip
        .popsection

        .p2align 4
        .globl pbs_percpu_rseq_push
        .type pbs_percpu_rseq_push, @function
    pbs_percpu_rseq_push:
        lea rax, [rip + 100f]
        mov qword ptr [rdi + 8], rax
    1:                                   // start_ip
        mov eax, dword ptr [rdi + 4]
        cmp eax, esi
        jne 4f
        mov eax, dword ptr [rdx + 16]
        cmp eax, 1
        jne 5f
        mov rax, qword ptr [rdx]         // commit word
        movzx r8d, ax                    // depth
        cmp r8, qword ptr [rdx + 8]      // cap
        jae 6f                           // full
        mov r9, qword ptr [rdx + 24]
        mov qword ptr [r9 + r8*8], rcx   // items[depth] = obj (dead slot)
        add rax, 0x10001
        mov qword ptr [rdx], rax         // COMMIT: depth += 1, pushes += 1
    2:                                   // post-commit
        mov qword ptr [rdi + 8], 0
        xor eax, eax
        ret
    4:  mov qword ptr [rdi + 8], 0
        mov eax, 1
        ret
    5:  mov qword ptr [rdi + 8], 0
        mov eax, 2
        ret
    6:  mov qword ptr [rdi + 8], 0
        mov eax, 3
        ret
        .balign 4
        .long 0x53053053
    3:                                   // abort_ip
        mov qword ptr [rdi + 8], 0
        mov eax, 1
        ret
        .size pbs_percpu_rseq_push, . - pbs_percpu_rseq_push
        .pushsection .data.rel.ro, "aw"
        .balign 32
    100:
        .long 0, 0
        .quad 1b
        .quad 2b - 1b
        .quad 3b
        .popsection
        .popsection
    "#
    );
}

#[cfg(not(all(pbs_rseq, not(miri))))]
mod imp {
    /// Without the rseq engine compiled in, the probe is a constant
    /// "no" and the fence has nothing to restart.
    pub(crate) fn supported() -> bool {
        false
    }

    pub(crate) fn fence() {}
}

pub(crate) use imp::*;
