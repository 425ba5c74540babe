//! Stackful coroutines for the discrete-event backend: every rank body
//! of a [`crate::Backend::Event`] run executes on its own `mmap`'d
//! stack, and the thread that called [`crate::Machine::try_run`] switches
//! between them in user space — no OS thread per rank, no kernel
//! round-trip per blocking receive.
//!
//! This module is the crate's whole `unsafe` surface:
//!
//! * `switch_stack` — a naked x86-64 context switch that saves the
//!   System V callee-saved registers (`rbx`, `rbp`, `r12`–`r15`) plus
//!   the MXCSR and x87 control words on the outgoing stack, stores the
//!   stack pointer, and restores the same set from the incoming stack.
//!   Everything else is caller-saved, so the compiler already spills it
//!   around the call.
//! * `trampoline` — the first frame of every coroutine. Its CFI marks
//!   the return address undefined, so backtraces captured inside a rank
//!   body (panic hooks under `RUST_BACKTRACE=1`,
//!   `Backtrace::force_capture`) end there instead of walking off the
//!   stack.
//! * [`Stack`] — a private anonymous mapping of [`STACK_SIZE`] bytes
//!   (Rust's default spawned-thread stack, reserved lazily with
//!   `MAP_NORESERVE`) above one `PROT_NONE` guard page, through the
//!   `mmap`/`mprotect`/`munmap` of the libc that `std` already links.
//!   An overflow faults on the guard page instead of corrupting a
//!   neighbour.
//!
//! Stacks are pooled per host thread. When a `run_all` ends (or
//! unwinds), the stack of every coroutine that finished or never
//! started goes back to a thread-local free list of at most
//! [`POOL_CAP`] stacks, and the next `run_all` on that thread takes its
//! stacks from that list before it maps fresh ones. When the rank count
//! repeats, rank *i* gets back the stack it used last. Stacks beyond
//! the cap are unmapped at once (a `P = 4096` sweep still maps most of
//! its stacks), and the pool's own stacks are unmapped at thread exit.
//! A stack that a host panic left suspended is leaked, never pooled.
//!
//! Panics never cross the trampoline: the body runs under
//! `catch_unwind` inside its coroutine (the machine's rank closure
//! catches first; this layer aborts if one ever escapes it).
//!
//! Compiled only on `linux` + `x86_64`; elsewhere the event backend
//! keeps its portable park/unpark gate over OS threads.

use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::ptr::{addr_of_mut, null_mut};

/// Usable bytes per coroutine stack: Rust's default stack size for
/// spawned threads, so no rank body gets less stack than a rank thread
/// had. Only touched pages are ever backed by memory.
const STACK_SIZE: usize = 2 << 20;

/// Most stacks one host thread keeps for reuse: the largest machine a
/// recurring workload runs (the `P = 64` network passes; serving runs
/// `P = 4`), so those runs map no stack after their first. A pooled
/// stack keeps only the pages its last body touched resident, and the
/// cap bounds the pool's address space at 128 MiB per host thread.
const POOL_CAP: usize = 64;

/// Guard region below each stack. x86-64 Linux pages are 4 KiB, and
/// Rust's stack probes touch every page of a large frame, so a single
/// page catches every overflow.
const GUARD: usize = 4096;

/// Initial floating-point control state of a fresh coroutine, as
/// `switch_stack` lays it out: MXCSR in the low word, the x87 control
/// word in the high one — the System V process-entry defaults (all
/// exceptions masked, round-to-nearest, 64-bit x87 precision).
const DEFAULT_FP_STATE: usize = 0x1F80 | (0x037F << 32);

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One coroutine stack: `GUARD` inaccessible bytes, then `STACK_SIZE`
/// read-write bytes growing down from [`Stack::top`].
struct Stack {
    base: *mut c_void,
    len: usize,
}

impl Stack {
    fn new() -> Stack {
        let len = GUARD + STACK_SIZE;
        // SAFETY: a fresh private anonymous mapping at a kernel-chosen
        // address; no existing memory is affected.
        let base = unsafe {
            mmap(
                null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "coroutine stack mmap failed: {}",
            std::io::Error::last_os_error()
        );
        // Owned from here on, so a failed mprotect still unmaps.
        let stack = Stack { base, len };
        // SAFETY: the guard page is the lowest page of the mapping just
        // created; nothing references it.
        let rc = unsafe { mprotect(base, GUARD, PROT_NONE) };
        assert_eq!(
            rc,
            0,
            "coroutine guard page mprotect failed: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// One past the highest usable byte (page-aligned, hence 16-byte
    /// aligned as the ABI requires).
    fn top(&self) -> *mut usize {
        self.base.wrapping_byte_add(self.len).cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` describe exactly the mapping `new`
        // created, and callers only drop a stack no coroutine is
        // suspended on (see `Fiber`'s drop).
        let rc = unsafe { munmap(self.base, self.len) };
        debug_assert_eq!(rc, 0, "coroutine stack munmap failed");
    }
}

/// Switch state of one coroutine.
struct Context {
    /// The coroutine's stack pointer while it is suspended (or before
    /// its first resume).
    sp: usize,
    /// The host's stack pointer while the coroutine runs.
    host_sp: usize,
    /// The body returned; the coroutine must never be resumed again.
    done: bool,
}

struct Fiber<F> {
    ctx: Context,
    /// Taken by `fiber_main` on first resume.
    body: Option<F>,
    /// `None` only inside `Drop`.
    stack: Option<Stack>,
}

impl<F> Drop for Fiber<F> {
    fn drop(&mut self) {
        let Some(stack) = self.stack.take() else {
            return;
        };
        if self.body.is_none() && !self.ctx.done {
            // Started but suspended for good (the host loop panicked):
            // its frames may still own or pin values that something
            // references. Leak the mapping rather than free or reuse
            // memory under them.
            std::mem::forget(stack);
        } else {
            // Nothing lives on a finished or never-started stack.
            // During thread teardown the pool may be gone already; the
            // stack is then unmapped here.
            let _ = POOL.try_with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < POOL_CAP {
                    pool.push(stack);
                }
            });
        }
    }
}

thread_local! {
    /// The coroutine running on this thread (null on a host stack).
    static CURRENT: Cell<*mut Context> = const { Cell::new(null_mut()) };
    /// This thread's free stacks, most recently returned last.
    static POOL: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// `n` stacks for one `run_all`: the pool's last `n` in the order they
/// were returned, then fresh mappings.
fn take_stacks(n: usize) -> impl Iterator<Item = Stack> {
    let pooled = POOL.with_borrow_mut(|pool| pool.split_off(pool.len().saturating_sub(n)));
    pooled.into_iter().chain(std::iter::repeat_with(Stack::new))
}

/// Run every body as a coroutine on the calling thread. `pick` names
/// the next body to resume (or to start); a resumed body runs until it
/// calls [`suspend`] or returns. Returns once `pick` yields `None`,
/// which the caller must only do after every body returned — this
/// panics otherwise.
pub(crate) fn run_all<F: FnOnce()>(bodies: Vec<F>, mut pick: impl FnMut() -> Option<usize>) {
    let stacks = take_stacks(bodies.len());
    let mut fibers: Vec<Fiber<F>> = bodies
        .into_iter()
        .zip(stacks)
        .map(|(body, stack)| Fiber {
            ctx: Context {
                sp: 0,
                host_sp: 0,
                done: false,
            },
            body: Some(body),
            stack: Some(stack),
        })
        .collect();
    // The vector is final: its buffer never moves again, so pointers
    // into it stay valid until it drops after the loop. It drops its
    // fibers in rank order, so their stacks return to the pool in the
    // order `take_stacks` hands them out again.
    let n = fibers.len();
    let base = fibers.as_mut_ptr();
    for i in 0..n {
        // SAFETY: `i` is in bounds; the stack is exclusively ours (fresh,
        // or pooled after its last coroutine finished), and the nine
        // words written lie inside its top page.
        unsafe {
            let fiber = base.add(i);
            let top = (*fiber).stack.as_ref().expect("stack").top();
            // The frame `switch_stack` pops on first resume, highest
            // address first: the trampoline's own return address (0,
            // the end of the stack), `ret` target, rbp, rbx (the
            // trampoline's argument), r12 (its call target), r13–r15,
            // then the MXCSR / x87 control words.
            let frame = [
                0,
                trampoline as *const () as usize,
                0,
                fiber as usize,
                fiber_main::<F> as *const () as usize,
                0,
                0,
                0,
                DEFAULT_FP_STATE,
            ];
            for (k, word) in frame.iter().enumerate() {
                top.sub(k + 1).write(*word);
            }
            (*fiber).ctx.sp = top.sub(frame.len()) as usize;
        }
    }
    while let Some(id) = pick() {
        assert!(id < n, "picked rank {id} out of range");
        // SAFETY: `id` is in bounds (checked), and `ctx` points into
        // the live `fibers` buffer.
        let ctx = unsafe { addr_of_mut!((*base.add(id)).ctx) };
        // SAFETY: as above; `done` is only written by the coroutine,
        // which is not running now.
        assert!(!unsafe { (*ctx).done }, "picked finished rank {id}");
        // SAFETY: the coroutine is suspended (or fresh) with a valid
        // saved frame at `sp`, and this frame outlives its run: the
        // host only leaves the loop once every coroutine finished (or
        // by panicking, in which case `Fiber::drop` leaks the stack of
        // any suspended one).
        unsafe { resume(ctx) };
    }
    assert!(
        fibers.iter().all(|f| f.ctx.done),
        "event scheduler stopped with suspended ranks"
    );
}

/// Switch from the host to the coroutine `ctx` until it suspends or
/// returns.
///
/// # Safety
/// `ctx` must be a live, unfinished coroutine of the running `run_all`.
unsafe fn resume(ctx: *mut Context) {
    let prev = CURRENT.replace(ctx);
    // SAFETY: per the caller's contract `ctx.sp` holds a frame laid out
    // by `switch_stack` (or the initial one `run_all` wrote), and
    // `host_sp` is ours to overwrite.
    unsafe { switch_stack(addr_of_mut!((*ctx).host_sp), (*ctx).sp) };
    CURRENT.set(prev);
}

/// Suspend the running coroutine and return to its host; returns when
/// the host resumes it. Panics when called outside a coroutine.
pub(crate) fn suspend() {
    let ctx = CURRENT.get();
    assert!(!ctx.is_null(), "suspend called outside a coroutine");
    // SAFETY: `ctx` is the running coroutine's context (set by `resume`
    // for exactly this run), and `host_sp` is the frame `resume` saved
    // on the host stack, which stays suspended until we switch back.
    unsafe { switch_stack(addr_of_mut!((*ctx).sp), (*ctx).host_sp) };
}

/// First Rust frame of every coroutine, called by `trampoline` with the
/// coroutine's `Fiber`. Runs the body, marks it done and returns to the
/// host for good.
extern "C" fn fiber_main<F: FnOnce()>(fiber: *mut Fiber<F>) -> ! {
    // SAFETY: `run_all` passes a pointer into its live `fibers` buffer,
    // and only this coroutine touches its `body`.
    let body = unsafe { (*fiber).body.take() };
    if let Some(body) = body {
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).is_err() {
            // Unwinding past this frame would run into the trampoline.
            eprintln!("panic escaped a coroutine body; aborting");
            std::process::abort();
        }
    }
    // SAFETY: as above; after `done` is set the host never resumes this
    // coroutine, so the `switch_stack` below never returns.
    unsafe {
        let ctx = addr_of_mut!((*fiber).ctx);
        (*ctx).done = true;
        switch_stack(addr_of_mut!((*ctx).sp), (*ctx).host_sp);
    }
    std::process::abort()
}

/// Save the callee-saved state on the current stack, store the stack
/// pointer to `*save_sp`, load `load_sp` and restore the state saved
/// there, returning into whatever switched away from it.
#[unsafe(naked)]
unsafe extern "C" fn switch_stack(save_sp: *mut usize, load_sp: usize) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Entry of a fresh coroutine (the `ret` target of its initial frame):
/// calls `r12(rbx)`, i.e. `fiber_main::<F>(fiber)`, which never
/// returns. On entry `rsp` points at a zero return address; the CFI
/// declares the return address undefined so unwinders stop here.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    core::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        // rbp is 0: realigns rsp to 16 bytes for the call.
        "push rbp",
        ".cfi_adjust_cfa_offset 8",
        "mov rdi, rbx",
        "call r12",
        "ud2",
        ".cfi_endproc",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_interleave_at_suspend_points() {
        let log = std::cell::RefCell::new(Vec::new());
        let bodies: Vec<_> = (0..3)
            .map(|i| {
                let log = &log;
                move || {
                    log.borrow_mut().push((i, 0));
                    suspend();
                    log.borrow_mut().push((i, 1));
                }
            })
            .collect();
        let mut order = vec![2, 0, 1, 0, 2, 1].into_iter();
        run_all(bodies, || order.next());
        assert_eq!(
            log.into_inner(),
            vec![(2, 0), (0, 0), (1, 0), (0, 1), (2, 1), (1, 1)]
        );
    }

    /// Address of a local in the caller's frame: equal across runs
    /// exactly when the same code runs on the same stack.
    #[inline(never)]
    fn local_addr() -> usize {
        let marker = 0u8;
        std::hint::black_box(&marker) as *const u8 as usize
    }

    fn pooled(addr: usize) -> bool {
        POOL.with_borrow(|pool| {
            pool.iter()
                .any(|s| (s.base as usize..s.top() as usize).contains(&addr))
        })
    }

    /// Run `n` bodies to completion in rank order; each records the
    /// address of a local on its stack.
    fn stack_addrs(n: usize) -> Vec<usize> {
        let addrs = std::cell::RefCell::new(vec![0; n]);
        let bodies: Vec<_> = (0..n)
            .map(|i| {
                let addrs = &addrs;
                move || addrs.borrow_mut()[i] = local_addr()
            })
            .collect();
        let mut order = 0..n;
        run_all(bodies, || order.next());
        addrs.into_inner()
    }

    #[test]
    fn consecutive_runs_reuse_their_stacks_rank_by_rank() {
        let first = stack_addrs(5);
        assert!(first.iter().all(|&a| pooled(a)));
        assert_eq!(stack_addrs(5), first);
    }

    #[test]
    fn the_pool_never_holds_more_than_its_cap() {
        let addrs = stack_addrs(POOL_CAP + 3);
        assert_eq!(POOL.with_borrow(Vec::len), POOL_CAP);
        assert!(addrs[..POOL_CAP].iter().all(|&a| pooled(a)));
        assert!(!addrs[POOL_CAP..].iter().any(|&a| pooled(a)));
    }

    #[test]
    fn a_rank_panic_the_machine_catches_still_returns_its_stack() {
        use crate::{Backend, Machine, MachineConfig};
        let cfg = MachineConfig {
            backend: Backend::Event,
            ..MachineConfig::default()
        };
        let run = || {
            let addrs = std::sync::Mutex::new(vec![0; 3]);
            let out = Machine::try_run::<u8, _, _>(3, cfg, |rank| {
                addrs.lock().unwrap()[rank.id()] = local_addr();
                assert_ne!(rank.id(), 1, "rank 1 fails");
            });
            assert_eq!(out.err().map(|e| e.failures.len()), Some(1));
            addrs.into_inner().unwrap()
        };
        let first = run();
        assert!(pooled(first[1]));
        assert_eq!(run(), first);
    }

    #[test]
    #[should_panic(expected = "stopped with suspended ranks")]
    fn stopping_with_a_suspended_body_panics() {
        // Body 0 finishes, body 1 stays suspended when the host stops.
        let addrs = std::cell::RefCell::new([0; 2]);
        let bodies: Vec<_> = (0..2)
            .map(|i| {
                let addrs = &addrs;
                move || {
                    addrs.borrow_mut()[i] = local_addr();
                    if i == 1 {
                        suspend();
                    }
                }
            })
            .collect();
        let mut order = vec![0, 1].into_iter();
        let stopped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_all(bodies, || order.next())
        }));
        let [finished, suspended] = addrs.into_inner();
        assert!(pooled(finished), "a finished stack returns to the pool");
        assert!(!pooled(suspended), "a suspended stack is leaked");
        std::panic::resume_unwind(stopped.expect_err("the host must stop with a panic"));
    }

    #[test]
    #[should_panic(expected = "suspend called outside a coroutine")]
    fn suspend_outside_a_coroutine_panics() {
        suspend();
    }
}
