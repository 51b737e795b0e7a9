//! Hardware-context topology information: context counts and thread
//! pinning.
//!
//! GLK's multiprogramming detector compares the number of runnable tasks to
//! the number of available hardware contexts (§3, "Measuring Contention").
//! This module provides the latter: what the operating system reports, with
//! nothing in the process able to redefine it.
//!
//! Beyond the passive count, [`pin_to`] pins the calling thread to one
//! hardware context (`sched_setaffinity` on Linux, a no-op elsewhere), so
//! benchmarks can measure genuine multi-core behaviour instead of whatever
//! placement the scheduler happens to pick.

use std::sync::OnceLock;

/// Returns the number of hardware contexts (logical CPUs) available to this
/// process: [`std::thread::available_parallelism`], or `1` where it cannot
/// tell. Computed once and cached for the lifetime of the process.
pub fn hardware_contexts() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A suggested thread-count sweep for contention experiments: 1, 2, 3, ... up
/// to `factor` times the number of hardware contexts, thinning out the large
/// counts to keep sweeps tractable.
///
/// The paper sweeps 1..60 threads on a 48-context machine (1.25x
/// oversubscription); `sweep(1.25)` reproduces that shape on any host.
pub fn sweep(factor: f64) -> Vec<usize> {
    let hw = hardware_contexts();
    let max = ((hw as f64) * factor).ceil() as usize;
    let max = max.max(2);
    let mut out = Vec::new();
    let mut t = 1usize;
    while t <= max {
        out.push(t);
        // Dense at the low end (where ticket/mcs crossovers live), sparser
        // towards the top.
        let step = if t < 4 {
            1
        } else if t < 16 {
            2
        } else {
            4
        };
        t += step;
    }
    if *out.last().unwrap() != max {
        out.push(max);
    }
    out
}

// ---------------------------------------------------------------------------
// Thread pinning
// ---------------------------------------------------------------------------

/// Pins the calling thread to hardware context `ctx`.
///
/// Returns `true` if the kernel accepted the affinity change. On platforms
/// without an affinity syscall (or when the kernel rejects the mask — e.g.
/// `ctx` is outside the process's cpuset) this returns `false` and the
/// thread keeps its previous placement; callers must treat pinning as
/// best-effort.
pub fn pin_to(ctx: usize) -> bool {
    sched_setaffinity_single(ctx)
}

/// Pins the calling thread round-robin over the hardware contexts: worker
/// `index` goes to context `index % hardware_contexts()`. The standard
/// placement used by every measurement driver in the harness.
pub fn pin_worker(index: usize) -> bool {
    pin_to(index % hardware_contexts())
}

/// The hardware context the calling thread is executing on right now, if the
/// platform can tell us (`getcpu` on Linux). `None` on other platforms.
pub fn current_context() -> Option<usize> {
    getcpu()
}

/// Whether [`pin_to`] can possibly succeed on this platform.
pub fn pinning_supported() -> bool {
    cfg!(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_setaffinity_single(ctx: usize) -> bool {
    // Raw syscall: the workspace is std-only (no libc crate), and
    // sched_setaffinity has a stable ABI. Mask is a u64 array; contexts
    // beyond 1024 are out of scope for this reproduction.
    if ctx >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[ctx / 64] = 1u64 << (ctx % 64);
    let ret: isize;
    // SAFETY: raw syscall; the kernel only reads/writes the stack-local
    // buffer passed in, and nothing escapes the call.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // SYS_sched_setaffinity
            in("rdi") 0usize,                 // pid 0 = calling thread
            in("rsi") core::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn sched_setaffinity_single(ctx: usize) -> bool {
    if ctx >= 1024 {
        return false;
    }
    let mut mask = [0u64; 16];
    mask[ctx / 64] = 1u64 << (ctx % 64);
    let ret: isize;
    // SAFETY: raw syscall; the kernel only reads/writes the stack-local
    // buffer passed in, and nothing escapes the call.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 122usize, // SYS_sched_setaffinity
            inlateout("x0") 0usize => ret,
            in("x1") core::mem::size_of_val(&mask),
            in("x2") mask.as_ptr(),
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn sched_setaffinity_single(_ctx: usize) -> bool {
    false
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn getcpu() -> Option<usize> {
    let mut cpu: u32 = 0;
    let ret: isize;
    // SAFETY: raw syscall; the kernel only reads/writes the stack-local
    // buffer passed in, and nothing escapes the call.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 309isize => ret, // SYS_getcpu
            in("rdi") &mut cpu as *mut u32,
            in("rsi") 0usize,
            in("rdx") 0usize,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret == 0 {
        Some(cpu as usize)
    } else {
        None
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
fn getcpu() -> Option<usize> {
    let mut cpu: u32 = 0;
    let ret: isize;
    // SAFETY: raw syscall; the kernel only reads/writes the stack-local
    // buffer passed in, and nothing escapes the call.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") 168usize, // SYS_getcpu
            inlateout("x0") &mut cpu as *mut u32 => ret,
            in("x1") 0usize,
            in("x2") 0usize,
            options(nostack),
        );
    }
    if ret == 0 {
        Some(cpu as usize)
    } else {
        None
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn getcpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_contexts_is_positive_and_cached() {
        let a = hardware_contexts();
        let b = hardware_contexts();
        assert!(a >= 1);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_is_sorted_and_starts_at_one() {
        let s = sweep(1.25);
        assert_eq!(s[0], 1);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sweep_covers_oversubscription() {
        let s = sweep(1.5);
        let hw = hardware_contexts();
        assert!(*s.last().unwrap() >= hw.max(2));
    }

    #[test]
    fn pin_to_roundtrip_or_unsupported() {
        if !pinning_supported() {
            assert!(!pin_to(0));
            return;
        }
        // Pinning to context 0 must succeed on any Linux box whose cpuset
        // includes cpu 0; if the cpuset excludes it, pin_to reports false
        // rather than lying.
        if pin_to(0) {
            if let Some(ctx) = current_context() {
                assert_eq!(ctx, 0);
            }
        }
    }
}
