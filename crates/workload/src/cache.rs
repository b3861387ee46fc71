//! A process-wide memoized trace cache.
//!
//! Before this cache existed, each of the ~17 experiment runners
//! independently regenerated the identical `mac`/`dos`/`hp`/`synth`
//! traces via [`Workload::generate_scaled`] — by far the largest share of
//! redundant work in a full `repro` run. [`trace`] generates each distinct
//! `(workload, fraction, seed)` trace exactly once per process and hands
//! every caller a shared [`Arc<Trace>`].
//!
//! Concurrency: the map itself is guarded by a [`Mutex`], but generation
//! happens *outside* that lock, behind a per-key [`OnceLock`] — so two
//! runners racing for the same trace block only each other (the second
//! waits for the first's generation), and runners after different traces
//! generate concurrently.
//!
//! Everything is std-only: `OnceLock` + `Mutex<HashMap>` + `Arc`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mobistore_trace::record::Trace;

use crate::Workload;

/// Cache key: the workload plus the exact bit patterns of `fraction` and
/// `seed` (bit-exact keying, no float comparison subtleties).
type Key = (Workload, u64, u64);

type Slot = Arc<OnceLock<Arc<Trace>>>;

static CACHE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Hit/miss counters for the process-wide cache (the `repro --timings`
/// summary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSummary {
    /// Lookups served from an already-generated trace.
    pub hits: u64,
    /// Lookups that had to generate (one per distinct key).
    pub misses: u64,
    /// Distinct traces currently held.
    pub entries: u64,
}

impl CacheSummary {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Returns the `(workload, fraction, seed)` trace, generating it on first
/// use and sharing the same allocation with every subsequent caller.
///
/// # Panics
///
/// Panics unless `0 < fraction <= 1` (as [`Workload::generate_scaled`]).
pub fn trace(workload: Workload, fraction: f64, seed: u64) -> Arc<Trace> {
    let key: Key = (workload, fraction.to_bits(), seed);
    let slot: Slot = {
        let mut map = CACHE
            .get_or_init(Mutex::default)
            .lock()
            .expect("trace cache poisoned");
        Arc::clone(map.entry(key).or_default())
    };
    let mut generated = false;
    let trace = slot.get_or_init(|| {
        generated = true;
        MISSES.fetch_add(1, Ordering::Relaxed);
        Arc::new(workload.generate_scaled(fraction, seed))
    });
    if !generated {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    Arc::clone(trace)
}

/// A snapshot of the cache counters.
pub fn summary() -> CacheSummary {
    let entries = CACHE
        .get()
        .map(|m| m.lock().expect("trace cache poisoned").len() as u64)
        .unwrap_or(0);
    CacheSummary {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{MutexGuard, PoisonError};

    use super::*;

    /// Serialises this module's tests: the cache counters are process-wide,
    /// so a lookup on a parallel test thread would move the miss count
    /// `summary_counts_misses_once_per_key` reads.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// Takes [`SERIAL`] for one test. The lock guards no data, so a guard
    /// poisoned by a failed test is recovered.
    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn repeated_lookups_share_one_allocation() {
        let _serial = serial();
        let a = trace(Workload::Synth, 0.011, 77);
        let b = trace(Workload::Synth, 0.011, 77);
        assert!(Arc::ptr_eq(&a, &b), "same key must return the same Arc");
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn distinct_seeds_get_distinct_traces() {
        let _serial = serial();
        let a = trace(Workload::Synth, 0.011, 1);
        let b = trace(Workload::Synth, 0.011, 2);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.ops, b.ops, "different seeds must differ");
    }

    #[test]
    fn cached_equals_fresh_generation() {
        let _serial = serial();
        let cached = trace(Workload::Synth, 0.012, 3);
        let fresh = Workload::Synth.generate_scaled(0.012, 3);
        assert_eq!(cached.ops, fresh.ops);
        assert_eq!(cached.block_size, fresh.block_size);
    }

    #[test]
    fn summary_counts_misses_once_per_key() {
        let _serial = serial();
        let before = summary();
        let _ = trace(Workload::Synth, 0.013, 5);
        let _ = trace(Workload::Synth, 0.013, 5);
        let after = summary();
        assert_eq!(after.misses - before.misses, 1);
        assert!(after.hits - before.hits >= 1);
        assert!(after.entries > 0);
    }

    #[test]
    fn concurrent_lookups_generate_once() {
        let _serial = serial();
        let results =
            mobistore_sim::exec::parallel_map(&[0u32; 8], |_| trace(Workload::Synth, 0.014, 9));
        let first = &results[0];
        for r in &results {
            assert!(Arc::ptr_eq(first, r));
        }
    }
}
