//! Simulated-op counters: how many trace operations the process pushed
//! through, the denominator of every ops/sec figure (`--timings-json`'s
//! per-target `ops_per_sec` and perfbench's `sim_ops_per_s`).
//!
//! The simulator calls [`add_ops`] once per run; [`ops_total`] reads the
//! process total, and a thread-local [context](set_context) counter lets
//! callers attribute ops to one target even when the work fans out
//! through [`crate::exec::parallel_map`] (which propagates the caller's
//! context into its workers). Host time itself is measured outside the
//! library, by perfbench.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Simulated trace operations completed by this process, across every
/// thread and every simulation run.
static OPS_TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The current thread's op-attribution counter, if any.
    static CONTEXT: RefCell<Option<Arc<AtomicU64>>> = const { RefCell::new(None) };
}

/// Credits `n` simulated operations to the process total and to the
/// current thread's [context](set_context) counter, if one is set.
///
/// Called by the simulator once per run (one relaxed atomic add per
/// simulation, not per op — the hot loop never sees this).
pub fn add_ops(n: u64) {
    OPS_TOTAL.fetch_add(n, Ordering::Relaxed);
    CONTEXT.with(|c| {
        if let Some(ctx) = c.borrow().as_ref() {
            ctx.fetch_add(n, Ordering::Relaxed);
        }
    });
}

/// The process-wide simulated-op total.
pub fn ops_total() -> u64 {
    OPS_TOTAL.load(Ordering::Relaxed)
}

/// Sets (or clears) this thread's op-attribution counter. Subsequent
/// [`add_ops`] calls on this thread also credit the given counter.
pub fn set_context(ctx: Option<Arc<AtomicU64>>) {
    CONTEXT.with(|c| *c.borrow_mut() = ctx);
}

/// This thread's current op-attribution counter, if any.
/// [`crate::exec::parallel_map`] captures this before spawning workers
/// and installs it in each of them.
pub fn current_context() -> Option<Arc<AtomicU64>> {
    CONTEXT.with(|c| c.borrow().clone())
}

/// Runs `f` with `ctx` installed as this thread's op counter, restoring
/// the previous context afterwards (also on the normal return path of
/// nested scopes — contexts stack).
pub fn with_context<R>(ctx: Arc<AtomicU64>, f: impl FnOnce() -> R) -> R {
    let prev = current_context();
    set_context(Some(ctx));
    let r = f();
    set_context(prev);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_accumulate_globally_and_per_context() {
        let before = ops_total();
        let ctx = Arc::new(AtomicU64::new(0));
        with_context(ctx.clone(), || {
            add_ops(5);
            add_ops(7);
        });
        add_ops(3); // outside the context
        assert_eq!(ctx.load(Ordering::Relaxed), 12);
        assert!(ops_total() >= before + 15);
        assert!(current_context().is_none());
    }

    #[test]
    fn contexts_nest_and_restore() {
        let outer = Arc::new(AtomicU64::new(0));
        let inner = Arc::new(AtomicU64::new(0));
        with_context(outer.clone(), || {
            add_ops(1);
            with_context(inner.clone(), || add_ops(10));
            add_ops(2);
        });
        assert_eq!(outer.load(Ordering::Relaxed), 3);
        assert_eq!(inner.load(Ordering::Relaxed), 10);
    }
}
