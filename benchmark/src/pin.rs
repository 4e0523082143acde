//! Pinning a run to one CPU.
//!
//! A served query is a chain of thread hand-offs (client → dispatcher → pool
//! worker → client). On the two-vCPU sandbox this benchmark was written on,
//! the kernel keeps such a chain either on one CPU or bouncing between both,
//! and stays with its choice for minutes: the same binary then serves 820 or
//! 330 queries per second (0.04 s or 3.4 s of system time), depending on
//! whether the machine was busy or idle before the run. A number that flips by
//! 2.4× with the machine's history can gate nothing, so a run confines itself
//! — every thread it will ever start — to one CPU, which makes it the first
//! of the two cases every time. The price: no run can show a parallel
//! speed-up. On two vCPUs none was reliably measurable anyway.
//!
//! `std` has no call for this, so the one system call is made directly. On
//! other targets than Linux x86-64 pinning is skipped and the run says so.

/// Confines the calling thread — and every thread it spawns from now on — to
/// the first CPU it is allowed on. Returns whether it took effect.
pub fn to_one_cpu() -> bool {
    (0..64).any(|cpu| set_affinity(1 << cpu))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(mask: u64) -> bool {
    const SYS_SCHED_SETAFFINITY: isize = 203;
    let result: isize;
    // SAFETY: `sched_setaffinity(0, 8, &mask)` reads eight bytes at `&mask`,
    // which is live for the whole call, and writes no memory. The `syscall`
    // instruction clobbers `rcx` and `r11`, both declared; it does not touch
    // the stack.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => result,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of::<u64>(),
            in("rdx") &mask as *const u64,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    result == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_mask: u64) -> bool {
    false
}
