//! A std-only parallel execution layer for embarrassingly parallel
//! simulation sweeps.
//!
//! Every experiment in this reproduction evaluates a pure function
//! (`simulate(&SystemConfig, &Trace)`) at many independent points — DRAM
//! sizes, utilizations, device × trace grids. [`parallel_map`] fans those
//! points out over a scoped-thread worker pool and returns results **in
//! input order**, so parallel runs are bit-identical to serial runs.
//!
//! The worker count comes from, in priority order:
//!
//! 1. [`set_jobs`] (the `repro` binary's `--jobs N` flag);
//! 2. the `MOBISTORE_JOBS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! With one job, [`parallel_map`] degenerates to an inline loop on the
//! calling thread — no threads are spawned at all. A panic raised by `f`
//! is caught per item and re-raised with context (item index, worker id)
//! so the caller sees *which* unit of work blew up, not just an anonymous
//! unwinding payload.
//!
//! [`ordered_stream_map`] is the streaming sibling: same dynamic
//! distribution, but instead of collecting a `Vec` it delivers each
//! result to a sink **in input order, as soon as its contiguous prefix is
//! complete** — the primitive the fleet supervisor folds checkpoints
//! through. Both run on one private pool; [`parallel_map`] is its
//! in-order delivery with a sink that pushes onto a `Vec`.
//!
//! No external dependencies: `std::thread::scope`, a mutex and a
//! condvar, and one atomic counter.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Process-wide override for the worker count (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for every subsequent [`parallel_map`] call
/// in this process. `--jobs 1` forces fully serial, inline execution.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_jobs(n: usize) {
    assert!(n > 0, "job count must be positive");
    JOBS_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The worker count [`parallel_map`] will use: the [`set_jobs`] override
/// if set, else `MOBISTORE_JOBS`, else the machine's available
/// parallelism (1 if that cannot be determined).
pub fn jobs() -> usize {
    let over = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    static ENV_JOBS: OnceLock<Option<usize>> = OnceLock::new();
    let env = *ENV_JOBS.get_or_init(|| {
        std::env::var("MOBISTORE_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
    });
    env.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Renders a panic payload as a human-readable cause string: the `&str`
/// or `String` message if the payload carries one (the overwhelmingly
/// common case — `panic!` with a format string), else a placeholder.
pub fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The first panic observed by a pool: which item, which worker, why.
struct PanicReport {
    index: usize,
    worker: usize,
    cause: String,
}

impl PanicReport {
    fn render(&self, primitive: &str, total: usize, workers: usize) -> String {
        format!(
            "{primitive}: item {} of {total} panicked on worker {} of {workers}: {}",
            self.index, self.worker, self.cause
        )
    }
}

/// Applies `f` to every item, in parallel over [`jobs`] workers, and
/// returns the results in input order.
///
/// Work is distributed dynamically (an atomic next-item counter), so
/// heterogeneous item costs — a 95%-utilization sweep point next to a 40%
/// one — still load-balance. `f` must be pure for parallel runs to equal
/// serial runs; every caller in this workspace satisfies that because
/// `simulate` is a pure function of its inputs.
///
/// # Panics
///
/// Re-raises the first panic raised by `f`, with the item index and
/// worker id prepended to the original cause. Remaining workers stop
/// pulling new items once a panic is recorded.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    pool("parallel_map", items, f, |_, r| out.push(r));
    out
}

/// Applies `f` to every item in parallel (same dynamic distribution as
/// [`parallel_map`]) but delivers each result to `sink` **on the calling
/// thread, in input order**, as soon as the contiguous prefix up to it is
/// complete. This keeps peak memory at O(out-of-order window) instead of
/// O(items), and — because the sink runs serially in order — lets the
/// caller fold incrementally and persist checkpoints at watermarks.
///
/// With one job the pool degenerates to an inline `map` + `sink` loop.
///
/// # Panics
///
/// Re-raises the first panic raised by `f` with item/worker context, the
/// same contract as [`parallel_map`]. The sink may have observed a
/// contiguous prefix of results before the panic propagates.
pub fn ordered_stream_map<T, R, F, S>(items: &[T], f: F, sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    pool("ordered_stream_map", items, f, sink);
}

/// Shared coordination state of one [`pool`].
struct PoolState<R> {
    /// Completed results not yet delivered, keyed by item index.
    ready: BTreeMap<usize, R>,
    /// First panic observed, if any.
    panic: Option<PanicReport>,
    /// Workers that have not yet exited their pull loop.
    live_workers: usize,
}

/// The worker pool behind both map primitives: workers pull items off
/// an atomic counter, and the calling thread hands each result to `sink`
/// in input order. A panic in `f` is re-raised as `primitive: item i of
/// n panicked on worker w of W: cause`. With one job no thread is
/// spawned.
fn pool<T, R, F, S>(primitive: &str, items: &[T], f: F, mut sink: S)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    S: FnMut(usize, R),
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        for (i, item) in items.iter().enumerate() {
            match catch_unwind(AssertUnwindSafe(|| f(item))) {
                Ok(r) => sink(i, r),
                Err(payload) => {
                    let report = PanicReport {
                        index: i,
                        worker: 0,
                        cause: panic_cause(&*payload),
                    };
                    panic!("{}", report.render(primitive, items.len(), 1));
                }
            }
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let state = Mutex::new(PoolState::<R> {
        ready: BTreeMap::new(),
        panic: None,
        live_workers: workers,
    });
    let cv = Condvar::new();
    // Workers inherit the caller's op-attribution counter so a target's
    // ops/sec stays correct when its sweeps fan out across threads.
    let prof_ctx = crate::prof::current_context();
    std::thread::scope(|scope| {
        let (next, state, cv, f) = (&next, &state, &cv, &f);
        for worker in 0..workers {
            let prof_ctx = prof_ctx.clone();
            scope.spawn(move || {
                crate::prof::set_context(prof_ctx);
                loop {
                    if state.lock().expect("pool state poisoned").panic.is_some() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else { break };
                    match catch_unwind(AssertUnwindSafe(|| f(item))) {
                        Ok(result) => {
                            let mut st = state.lock().expect("pool state poisoned");
                            st.ready.insert(i, result);
                        }
                        Err(payload) => {
                            let mut st = state.lock().expect("pool state poisoned");
                            st.panic.get_or_insert_with(|| PanicReport {
                                index: i,
                                worker,
                                cause: panic_cause(&*payload),
                            });
                            break;
                        }
                    }
                    cv.notify_all();
                }
                let mut st = state.lock().expect("pool state poisoned");
                st.live_workers -= 1;
                drop(st);
                cv.notify_all();
            });
        }

        // Deliver the contiguous prefix in order on this thread; park on
        // the condvar while the next-in-order result is still in flight.
        let mut delivered = 0usize;
        let mut st = state.lock().expect("pool state poisoned");
        while delivered < items.len() {
            if let Some(r) = st.ready.remove(&delivered) {
                drop(st);
                sink(delivered, r);
                delivered += 1;
                st = state.lock().expect("pool state poisoned");
                continue;
            }
            if st.panic.is_some() {
                break;
            }
            assert!(
                st.live_workers > 0,
                "{primitive}: workers exited with item {delivered} of {} missing",
                items.len()
            );
            st = cv.wait(st).expect("pool state poisoned");
        }
        let report = st.panic.take();
        drop(st);
        if let Some(report) = report {
            // `std::thread::scope` joins the remaining workers (they stop
            // at the panic flag) before this unwind leaves the scope.
            panic!("{}", report.render(primitive, items.len(), workers));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = parallel_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn balances_heterogeneous_work() {
        // Items of wildly different cost still come back in order.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |&x| {
            let spins = if x % 7 == 0 { 10_000 } else { 10 };
            (0..spins).fold(x, |acc, _| acc.wrapping_mul(0x9e37_79b9).wrapping_add(1));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn propagates_panics_with_item_context() {
        let result = std::panic::catch_unwind(|| {
            parallel_map(&[1u32, 2, 3, 4, 5, 6, 7, 8], |&x| {
                if x == 5 {
                    panic!("boom");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let cause = panic_cause(&*payload);
        assert!(
            cause.contains("parallel_map: item 4 of 8") && cause.contains("boom"),
            "panic message must carry item context, got: {cause}"
        );
    }

    #[test]
    fn panic_cause_renders_common_payloads() {
        assert_eq!(panic_cause(&"static"), "static");
        assert_eq!(panic_cause(&"owned".to_owned()), "owned");
        assert_eq!(panic_cause(&42u32), "non-string panic payload");
    }

    #[test]
    fn ordered_stream_map_delivers_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let mut seen = Vec::new();
        ordered_stream_map(
            &items,
            |&x| {
                // Uneven costs so results complete out of order.
                let spins = if x % 5 == 0 { 20_000 } else { 10 };
                (0..spins).fold(x, |acc, _| acc.wrapping_mul(0x9e37_79b9).wrapping_add(1));
                x * 3
            },
            |i, r| {
                assert_eq!(seen.len(), i, "sink must run in input order");
                seen.push(r);
            },
        );
        assert_eq!(seen, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_stream_map_handles_empty_and_single() {
        let mut calls = 0u32;
        ordered_stream_map(&Vec::<u32>::new(), |&x| x, |_, _| calls += 1);
        assert_eq!(calls, 0);
        let mut got = None;
        ordered_stream_map(&[9u32], |&x| x + 1, |i, r| got = Some((i, r)));
        assert_eq!(got, Some((0, 10)));
    }

    #[test]
    fn ordered_stream_map_propagates_panics_with_context() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut delivered = Vec::new();
            ordered_stream_map(
                &(0u32..64).collect::<Vec<_>>(),
                |&x| {
                    if x == 40 {
                        panic!("chunk exploded");
                    }
                    x
                },
                |i, _| delivered.push(i),
            );
        }));
        let payload = result.expect_err("panic must propagate");
        let cause = panic_cause(&*payload);
        assert!(
            cause.contains("ordered_stream_map: item 40 of 64") && cause.contains("chunk exploded"),
            "panic message must carry item context, got: {cause}"
        );
    }

    #[test]
    fn jobs_is_positive() {
        assert!(jobs() >= 1);
    }
}
