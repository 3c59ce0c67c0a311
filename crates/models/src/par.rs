//! Scoped-thread data parallelism at one level.
//!
//! The tuning service refits surrogates on every proposal, so the
//! fit/predict loops are provider-side overhead that scales with tenant
//! traffic (§IV). This module gives the workspace a tiny, dependency
//! -light fork/join layer over `crossbeam::thread::scope`:
//!
//! * [`par_map`] / [`par_map_threads`] — order-preserving parallel map
//!   over a slice;
//! * [`num_threads`] — worker count from `available_parallelism`, with a
//!   `SEAMLESS_THREADS` environment override;
//! * [`threads_for`] — the worker count a model kernel should ask for,
//!   given an estimate of its work.
//!
//! **One level of parallelism.** Every worker thread (the caller
//! included, while it works) carries a thread-local flag, and any
//! `par_*` call made on a worker runs inline on that worker. So the
//! outermost fan-out — tenants in `tune_many`, trials in the executor —
//! keeps the cores, and the surrogate fits and acquisition scans under
//! it never spawn threads of their own.
//!
//! **Dynamic claiming.** [`par_map`] workers take the next unclaimed
//! index from a shared counter instead of a fixed contiguous chunk, so
//! uneven items (tenants whose tunes differ in length) do not leave a
//! core idle while another finishes its share. Results are written back
//! in input order.
//!
//! **A work cutoff.** Model kernels fan out only when [`threads_for`]
//! says their estimated work reaches [`PAR_WORK_CUTOFF`]: at service
//! sizes (a cached GP append, or a full fit up to
//! ~60 points) spawning threads costs more CPU than it saves wall time,
//! while the cold n = 120 grid refit and the n = 512 fit still split
//! across cores.
//!
//! [`par_map_threads`] has a sequential path (one worker, tiny inputs,
//! or a nested call) and takes an explicit thread count, so callers
//! pick the fan-out and equivalence tests can pin it. Callers keep
//! results deterministic: closures must be pure functions of their
//! input (seed-split RNGs, no shared mutable state), and results come
//! back in input order whatever the thread count, so outputs are
//! bitwise identical at every thread count.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "SEAMLESS_THREADS";

/// Estimated work (multiply-adds, roughly) from which a model kernel
/// fans out. A GP full refit reaches it at 68 points at d = 26, a
/// one-row cached append at 216 points.
pub const PAR_WORK_CUTOFF: u64 = 1 << 21;

thread_local! {
    /// Set while this thread runs `par_*` work items.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is running `par_*` work items, in which
/// case any further `par_*` call on it runs inline.
fn on_worker() -> bool {
    ON_WORKER.with(Cell::get)
}

/// Marks the current thread as a worker until dropped, then restores
/// the previous state (the caller thread works too, and must not stay
/// marked after its `par_*` call returns or unwinds).
struct WorkerGuard(bool);

impl WorkerGuard {
    fn enter() -> Self {
        WorkerGuard(ON_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        ON_WORKER.with(|w| w.set(self.0));
    }
}

/// The process-wide worker count: `SEAMLESS_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// Resolved once and cached (the hot paths call this per fit).
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| threads_from(std::env::var(THREADS_ENV).ok().as_deref()))
}

/// Pure resolution logic behind [`num_threads`], separated for tests.
pub(crate) fn threads_from(env: Option<&str>) -> usize {
    if let Some(v) = env {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The worker count a kernel with `work` estimated operations runs
/// with: `1` below [`PAR_WORK_CUTOFF`] or on a worker thread (where a
/// `par_*` call runs inline anyway), [`num_threads`] otherwise.
pub fn threads_for(work: u64) -> usize {
    if work < PAR_WORK_CUTOFF || on_worker() {
        1
    } else {
        num_threads()
    }
}

/// Parallel map with the process-wide thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(items, num_threads(), f)
}

/// Parallel map with an explicit thread count. Results are returned in
/// input order. With `threads <= 1`, fewer than two items, or a call
/// made on a worker thread this is a plain sequential map; otherwise
/// `threads` workers (the caller is one of them) each claim the next
/// unclaimed item until none is left, so which worker runs an item,
/// and in what order, depends on timing — never the result.
pub fn par_map_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 || on_worker() {
        return items.iter().map(f).collect();
    }
    // The counter hands out indices only; results travel back through
    // `join`, which synchronizes, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let work = || {
        let _worker = WorkerGuard::enter();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(item)));
        }
        done
    };
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (1..threads).map(|_| s.spawn(|_| work())).collect();
        let mine = work();
        let theirs = handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"));
        for (i, r) in mine.into_iter().chain(theirs) {
            slots[i] = Some(r);
        }
    })
    .expect("scope itself cannot fail");
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 200] {
            assert_eq!(par_map_threads(&items, threads, |x| x * x), expect);
        }
    }

    #[test]
    fn par_map_handles_tiny_inputs() {
        assert_eq!(par_map_threads::<u32, u32, _>(&[], 8, |x| *x), vec![]);
        assert_eq!(par_map_threads(&[5u32], 8, |x| x + 1), vec![6]);
    }

    /// Waits until `counter` reaches `target`, giving up after ten
    /// seconds; `false` means the expected concurrency never happened
    /// (the test then fails instead of hanging).
    fn wait_for(counter: &AtomicUsize, target: usize) -> bool {
        let start = std::time::Instant::now();
        while counter.load(Ordering::SeqCst) < target {
            if start.elapsed() > std::time::Duration::from_secs(10) {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn nested_calls_run_on_the_workers_own_thread() {
        let outer: Vec<bool> = par_map_threads(&[0u8, 1, 2, 3], 2, |_| {
            let me = std::thread::current().id();
            assert!(on_worker());
            let mapped = par_map_threads(&[0u8; 16], 8, |_| std::thread::current().id());
            mapped.len() == 16 && mapped.iter().all(|id| *id == me)
        });
        assert_eq!(outer, vec![true; 4]);
    }

    #[test]
    fn dynamic_claiming_keeps_input_order_under_uneven_costs() {
        // Item 0 blocks until every other item has finished, so the
        // worker that claimed it holds it to the end while the other
        // workers drain the rest. A fixed contiguous split would leave
        // items behind item 0 in its worker's chunk and time out.
        for threads in [2usize, 3, 8] {
            let items: Vec<usize> = (0..40).collect();
            let finished = AtomicUsize::new(0);
            let got = par_map_threads(&items, threads, |&i| {
                if i == 0 {
                    assert!(
                        wait_for(&finished, items.len() - 1),
                        "item 0 never saw the others finish at {threads} threads"
                    );
                } else if i % 7 == 0 {
                    // Uneven costs among the rest too.
                    for _ in 0..i * 1000 {
                        std::hint::black_box(i);
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
                i * 10
            });
            assert_eq!(got, items.iter().map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn threads_for_applies_the_cutoff() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(PAR_WORK_CUTOFF - 1), 1);
        assert_eq!(threads_for(PAR_WORK_CUTOFF), num_threads());
        assert_eq!(threads_for(u64::MAX), num_threads());
        // A worker never fans out, whatever the work.
        assert_eq!(
            par_map_threads(&[0u8, 1], 2, |_| threads_for(u64::MAX)),
            [1, 1]
        );
    }

    #[test]
    fn worker_flag_does_not_leak_to_the_caller() {
        let _ = par_map_threads(&[0u8; 8], 2, |x| x + 1);
        assert!(!on_worker());
        // Both items must run at once: each waits for the other, which
        // only a real second worker can satisfy.
        let arrived = AtomicUsize::new(0);
        let met = par_map_threads(&[0u8, 1], 2, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            wait_for(&arrived, 2)
        });
        assert_eq!(met, [true, true]);
        assert!(!on_worker());
    }

    #[test]
    fn env_override_parses() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        // Invalid values fall back to the machine's parallelism (>= 1).
        assert!(threads_from(Some("zero")) >= 1);
        assert!(threads_from(Some("0")) >= 1);
        assert!(threads_from(None) >= 1);
    }
}
