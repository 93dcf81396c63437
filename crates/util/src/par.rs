//! Minimal data-parallel helpers over a small pool of long-lived helper
//! threads.
//!
//! The crypto tensor operations in `bf-paillier` are embarrassingly
//! parallel over matrix rows/entries; these helpers split an index range
//! between the calling thread and the pool without any allocation
//! beyond the output. Results are keyed by index, never by which thread
//! ran an item.
//!
//! The helpers are started once and never exit. A thread per section was
//! cheap to write but churned the allocator: every short-lived worker
//! took a malloc arena and handed it back in exit order, so the arena a
//! party thread grew for its working set kept changing hands and the
//! process held one grown arena per thread that ever ran (tens of MB on
//! the wide workloads). With long-lived helpers the arenas stay put, and
//! a section costs a wake-up instead of two spawns.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

std::thread_local! {
    /// True while the current thread is working inside a parallel
    /// section: always on a pool helper, and on a calling thread for the
    /// duration of its own section.
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// True if the calling thread is currently a parallel-section worker.
///
/// Nested parallel helpers ([`par_map`] / [`par_for_each_mut`]) check
/// this and fall back to a serial loop: the outer section already
/// saturates the machine (e.g. an obfuscator pool built inside a
/// parallel encryption section), and a helper that waited on other
/// helpers could deadlock the pool.
pub fn in_parallel_section() -> bool {
    IN_PAR.with(|c| c.get())
}

/// Number of worker threads to use for parallel sections.
///
/// Respects the `BLINDFL_THREADS` environment variable; defaults to the
/// machine's available parallelism.
pub fn num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("BLINDFL_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Serial cut-off for sections of cheap items — a homomorphic add, a
/// pooled encryption, a few µs each: below this many items waking the
/// helpers costs more than they save.
pub const FINE: usize = 32;

/// Serial cut-off for sections whose items are whole modular
/// exponentiations (a CRT decryption, a repack group: hundreds of µs
/// each), which repay the wake-up from two items up.
pub const COARSE: usize = 2;

/// Parallel map over `0..n`, producing a `Vec<T>` where `out[i] = f(i)`.
///
/// `f` must be cheap to share across threads (`Sync`). Falls back to a
/// serial loop below [`FINE`] items.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_min(FINE, n, f)
}

/// [`par_map`] with the serial cut-off chosen by the caller, who knows
/// what one item costs: [`COARSE`] or [`FINE`].
pub fn par_map_min<T, F>(min_items: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<std::mem::MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: every element is written exactly once below before assume_init.
    #[allow(clippy::uninit_vec)]
    unsafe {
        out.set_len(n);
    }
    par_for_each_mut_min(min_items, &mut out, |i, slot| {
        slot.write(f(i));
    });
    // SAFETY: all n elements initialised by the loop above.
    unsafe { std::mem::transmute::<Vec<std::mem::MaybeUninit<T>>, Vec<T>>(out) }
}

struct SendPtr<T>(*mut T);
// SAFETY: used only with disjoint index ranges per thread.
unsafe impl<T> Sync for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}

/// Parallel in-place mutation of a slice: `f(i, &mut slice[i])`. Serial
/// below [`FINE`] items.
pub fn par_for_each_mut<T, F>(slice: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    par_for_each_mut_min(FINE, slice, f)
}

/// [`par_for_each_mut`] with the serial cut-off chosen by the caller:
/// [`COARSE`] or [`FINE`].
pub fn par_for_each_mut_min<T, F>(min_items: usize, slice: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = slice.len();
    let threads = num_threads().min(n.max(1));
    if threads <= 1 || n < min_items || in_parallel_section() {
        for (i, v) in slice.iter_mut().enumerate() {
            f(i, v);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let chunk = (n / (threads * 8)).max(1);
    let base = SendPtr(slice.as_mut_ptr());
    run_section(threads - 1, &|| {
        let base = &base;
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                // SAFETY: disjoint indices across threads.
                unsafe { f(i, &mut *base.0.add(i)) };
            }
        }
    });
}

/// One helper's invitation to a section's work loop.
struct Ticket {
    /// The loop, with its lifetime erased. Dereferenced only while
    /// `state` is `Running`.
    work: *const (dyn Fn() + Sync),
    state: Mutex<TicketState>,
    retired: Condvar,
}

// SAFETY: `work` points at a `Sync` closure, so handing the pointer to a
// helper shares a `&(dyn Fn() + Sync)`; `run_section` keeps the closure
// alive until the ticket is cancelled or done (see there).
unsafe impl Send for Ticket {}
// SAFETY: as above; every other field is `Sync`.
unsafe impl Sync for Ticket {}

#[derive(Clone, Copy, PartialEq)]
enum TicketState {
    /// Queued; no helper has looked at it yet.
    Pending,
    /// A helper is inside the work loop.
    Running,
    /// The helper left the loop (by panicking, if `panicked`).
    Done { panicked: bool },
    /// The section finished first and withdrew the invitation.
    Cancelled,
}

const POISONED: &str = "a parallel-section lock is never held across a panic";

impl Ticket {
    /// Withdraw the ticket if no helper took it, else wait for that
    /// helper to leave the loop; true if it panicked there. After this
    /// returns nobody dereferences `work` again.
    fn retire(&self) -> bool {
        let mut state = self.state.lock().expect(POISONED);
        if *state == TicketState::Pending {
            *state = TicketState::Cancelled;
        }
        while *state == TicketState::Running {
            state = self.retired.wait(state).expect(POISONED);
        }
        *state == TicketState::Done { panicked: true }
    }
}

/// The tickets of one section; dropping it retires them, so a section
/// that unwinds still outlives every helper that entered it.
struct Section(Vec<Arc<Ticket>>);

impl Section {
    /// Retire every ticket (no short-circuit); true if any helper
    /// panicked.
    fn retire(&self) -> bool {
        let mut panicked = false;
        for ticket in &self.0 {
            panicked |= ticket.retire();
        }
        panicked
    }
}

impl Drop for Section {
    fn drop(&mut self) {
        self.retire();
    }
}

/// The helper threads' shared inbox.
struct Pool {
    queue: Mutex<VecDeque<Arc<Ticket>>>,
    posted: Condvar,
}

/// The process-wide pool: `num_threads() − 1` helpers (the caller of a
/// section is its first worker), started on first use, never stopped.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            posted: Condvar::new(),
        }));
        for i in 1..num_threads() {
            std::thread::Builder::new()
                .name(format!("bf-par-{i}"))
                .spawn(move || help(pool))
                .expect("spawn parallel-section helper");
        }
        pool
    })
}

/// A helper's life: take a ticket, join that section's loop, repeat.
fn help(pool: &Pool) {
    IN_PAR.with(|c| c.set(true));
    loop {
        let ticket = {
            let mut queue = pool.queue.lock().expect(POISONED);
            loop {
                if let Some(ticket) = queue.pop_front() {
                    break ticket;
                }
                queue = pool.posted.wait(queue).expect(POISONED);
            }
        };
        {
            let mut state = ticket.state.lock().expect(POISONED);
            if *state != TicketState::Pending {
                continue;
            }
            *state = TicketState::Running;
        }
        // SAFETY: the ticket is `Running`, so its section is blocked in
        // `retire` (or still working) with the closure alive.
        let panicked = catch_unwind(AssertUnwindSafe(|| unsafe { (*ticket.work)() })).is_err();
        *ticket.state.lock().expect(POISONED) = TicketState::Done { panicked };
        ticket.retired.notify_one();
    }
}

/// Run `work` on the calling thread and on up to `helpers` pool threads
/// at once; returns when all of them have left it. `work` must be a loop
/// that ends once the section's items are taken, on whichever thread.
///
/// Helpers busy elsewhere are not waited for: the caller drains the
/// section itself and withdraws the tickets nobody took.
fn run_section(helpers: usize, work: &(dyn Fn() + Sync)) {
    // SAFETY: only the lifetime changes. The pointer is dereferenced by
    // a helper only while its ticket is `Running`, and `section` below
    // retires every ticket — waiting out the running ones — before this
    // frame, which `work` outlives, can return or unwind.
    let erased: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(work) };
    let section = Section(
        (0..helpers)
            .map(|_| {
                Arc::new(Ticket {
                    work: erased,
                    state: Mutex::new(TicketState::Pending),
                    retired: Condvar::new(),
                })
            })
            .collect(),
    );
    let pool = pool();
    pool.queue
        .lock()
        .expect(POISONED)
        .extend(section.0.iter().cloned());
    for _ in 0..helpers {
        pool.posted.notify_one();
    }

    struct Leave;
    impl Drop for Leave {
        fn drop(&mut self) {
            IN_PAR.with(|c| c.set(false));
        }
    }
    IN_PAR.with(|c| c.set(true));
    let leave = Leave;
    work();
    drop(leave);
    assert!(!section.retire(), "parallel worker panicked");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial() {
        let got = par_map(1000, |i| i * i);
        let want: Vec<usize> = (0..1000).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_small_input() {
        assert_eq!(par_map(3, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn par_for_each_mut_matches_serial() {
        let mut a: Vec<u64> = (0..500).collect();
        par_for_each_mut(&mut a, |i, v| *v += i as u64);
        for (i, v) in a.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn par_map_nontrivial_type() {
        let got = par_map(200, |i| vec![i; 3]);
        for (i, v) in got.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
    }

    #[test]
    fn nested_par_map_runs_serially_on_the_worker_thread() {
        // Regression: a par_map inside a par_map worker used to spawn a
        // full worker pool per outer worker (T² threads). The inner
        // call must now fall back to a serial loop — every inner
        // element executes on the calling worker's own thread.
        assert!(!in_parallel_section(), "flag leaked into the test thread");
        let outer = par_map(64, |i| {
            assert!(in_parallel_section() || num_threads() == 1);
            let me = std::thread::current().id();
            let inner = par_map(64, move |j| (std::thread::current().id(), i + j));
            // Inner results are correct *and* were produced serially
            // (same thread as the worker) whenever the outer section
            // actually went parallel.
            for (k, (tid, v)) in inner.iter().enumerate() {
                assert_eq!(*v, i + k);
                if num_threads() > 1 {
                    assert_eq!(*tid, me, "nested par_map spawned threads");
                }
            }
            inner.iter().map(|(_, v)| *v).sum::<usize>()
        });
        for (i, s) in outer.iter().enumerate() {
            assert_eq!(*s, 64 * i + (0..64).sum::<usize>());
        }
        // Back outside: the flag must not stick to the caller.
        assert!(!in_parallel_section());
    }

    #[test]
    fn coarse_cutoff_splits_two_items_across_two_threads() {
        if num_threads() < 2 {
            return; // one worker: nothing to split
        }
        // A two-party barrier with a deadline: neither item finishes
        // until the other has started, so two items on one thread (the
        // FINE cut-off's behaviour at n = 2) fail instead of passing.
        let arrived = AtomicUsize::new(0);
        let meet = || {
            arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 {
                assert!(t0.elapsed().as_secs() < 30, "items ran one after the other");
                std::thread::yield_now();
            }
            std::thread::current().id()
        };
        let ids = par_map_min(COARSE, 2, |_| meet());
        assert_ne!(ids[0], ids[1]);

        arrived.store(0, Ordering::SeqCst);
        let mut ids = [std::thread::current().id(); 2];
        par_for_each_mut_min(COARSE, &mut ids, |_, id| *id = meet());
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn coarse_cutoff_is_index_ordered_and_serial_when_nested() {
        for n in [0, 1, 2, 3, 7, 31, 100] {
            let got = par_map_min(COARSE, n, |i| i * 3);
            assert_eq!(got, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        }
        // Two fat outer items, each running a coarse inner section: the
        // inner one stays on its worker's thread.
        let outer = par_map_min(COARSE, 2, |i| {
            let me = std::thread::current().id();
            let inner = par_map_min(COARSE, 4, |j| (std::thread::current().id(), 10 * i + j));
            assert!(inner.iter().all(|(tid, _)| *tid == me));
            inner.iter().map(|(_, v)| *v).collect::<Vec<_>>()
        });
        assert_eq!(outer, [vec![0, 1, 2, 3], vec![10, 11, 12, 13]]);
    }

    #[test]
    fn a_panicking_item_fails_its_section_and_spares_the_pool() {
        // Odd items panic, on whichever thread takes them — the caller
        // or a helper.
        let r = std::panic::catch_unwind(|| {
            par_map_min(COARSE, 8, |i| {
                assert!(i % 2 == 0, "item {i}");
                i
            })
        });
        assert!(r.is_err());
        // The caller is outside the section again, and the helpers are
        // still there for the next one.
        assert!(!in_parallel_section());
        assert_eq!(par_map_min(COARSE, 8, |i| i), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_for_each_mut_runs_serially() {
        let mut rows: Vec<Vec<u64>> = (0..64).map(|i| vec![i; 64]).collect();
        par_for_each_mut(&mut rows, |i, row| {
            let me = std::thread::current().id();
            let ids = par_map(row.len(), move |_| std::thread::current().id());
            if num_threads() > 1 {
                assert!(ids.iter().all(|t| *t == me));
            }
            par_for_each_mut(row, |j, v| *v += j as u64);
            assert_eq!(row[3], i as u64 + 3);
        });
        for (i, row) in rows.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                assert_eq!(*v, (i + j) as u64);
            }
        }
    }
}
