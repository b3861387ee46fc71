//! Allocation guard for the simulator's op path, for trace generation
//! and for the working set.
//!
//! Every op the simulator replays touches the DRAM cache's index, the
//! flash card's block map and, under cleaning, the cleaner's slot table;
//! an SRAM flush drains the write buffer's blocks into a list; on an
//! erasure-coded array an op touches the stripe table, the shard arena
//! and the array's per-op scratch. Those structures and the per-op
//! block lists are reused across ops, so a replay's heap allocations come
//! from set-up and from tables growing to their working size, not from
//! the ops themselves. Trace
//! generation likewise lays each record out into one reused buffer. The
//! tests count the allocations one `simulate` or `generate` call makes on
//! the calling thread and bound them per op or per trace. The working
//! set is a bitmap of the pages a trace touches, so its tests bound the
//! most heap bytes the thread holds at once instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobistore::core::config::SystemConfig;
use mobistore::core::simulator::simulate;
use mobistore::device::array::ChildClass;
use mobistore::device::params::{cu140_datasheet, intel_datasheet};
use mobistore::experiments::{flash_card_config, working_set_blocks};
use mobistore::sim::exec;
use mobistore::sim::units::MIB;
use mobistore::trace::record::{working_set_runs, DiskOp, DiskOpKind, Trace};
use mobistore::workload::TraceSpec;
use mobistore::{Metrics, Workload};

/// The system allocator, counting the allocations each thread makes and
/// the heap bytes it holds.
struct CountingAlloc;

thread_local! {
    /// Allocations (including reallocations) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not freed. A block freed by a
    /// thread other than the one that allocated it moves both threads'
    /// counts, so it may go below zero.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has held since [`peak_heap`] last reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are not the test's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Adds `allocated` bytes to this thread's live count, raises its peak
/// to match, then takes `freed` bytes off. No block reaches `i64::MAX`
/// bytes.
fn note_bytes(allocated: usize, freed: usize) {
    let _ = LIVE_BYTES.try_with(|live| {
        let held = live.get() + allocated as i64;
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(held)));
        live.set(held - freed as i64);
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result, so `System`'s guarantees carry over.
// Counting touches only const-initialised thread-local `Cell`s, which
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_bytes(layout.size(), 0);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_bytes(layout.size(), 0);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, which is `System`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Counted as a move: the new block is held beside the old one
            // at the peak, whether or not `System` grew it in place.
            note_bytes(new_size, layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract;
        // `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) };
        note_bytes(0, layout.size());
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns its result with the most heap bytes this thread
/// held at once while it ran, beyond what it held before. The result
/// itself counts, since `f` allocated it.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let out = f();
    let peak = u64::try_from(PEAK_BYTES.with(Cell::get) - before)
        .expect("the peak starts at the live count");
    (out, peak)
}

#[test]
fn card_replay_with_dram_allocates_under_a_tenth_per_op() {
    // The card-clean cell: the mac trace on the Intel card at 90%
    // utilization, so the cleaner relocates blocks throughout, behind
    // 2 MB of write-through DRAM.
    let trace = Workload::Mac.generate_scaled(0.05, 1994);
    let config = flash_card_config(intel_datasheet(), &trace, 0.9).with_dram(2 * MIB);
    let ops = trace.ops.len() as u64;

    let before = allocations();
    let metrics = simulate(&config, &trace);
    let allocs = allocations() - before;

    let card = metrics
        .flash_card
        .expect("a card run reports card counters");
    assert!(card.blocks_copied > 0, "the cleaner never ran: {card:?}");
    assert!(ops >= 2_000, "too few ops ({ops}) to amortise set-up");
    let per_op = allocs as f64 / ops as f64;
    assert!(
        per_op < 0.1,
        "{allocs} heap allocations over {ops} ops ({per_op:.3} per op)"
    );
}

/// Heap allocations one `simulate` call makes, and the metrics it
/// returns.
fn counted_simulate(config: &SystemConfig, trace: &Trace) -> (u64, Metrics) {
    let before = allocations();
    let metrics = simulate(config, trace);
    (allocations() - before, metrics)
}

#[test]
fn disk_replay_with_sram_allocates_under_a_tenth_per_op() {
    // Table 4's hp row on the cu140: no DRAM (hp sits below the buffer
    // cache) and the default 32-KB SRAM write buffer, so a write that
    // overflows the buffer flushes it to the disk on the write path.
    let trace = Workload::Hp.generate_scaled(0.05, 1994);
    let config = SystemConfig::disk(cu140_datasheet()).with_dram(0);
    let ops = trace.ops.len() as u64;

    let (allocs, metrics) = counted_simulate(&config, &trace);

    let flushes = metrics.sram.expect("an SRAM run reports its stats").flushes;
    assert!(ops >= 1_500, "too few ops ({ops}) to amortise set-up");
    assert!(flushes >= 100, "only {flushes} SRAM flushes over {ops} ops");
    let per_op = allocs as f64 / ops as f64;
    assert!(
        per_op < 0.1 && allocs < flushes,
        "{allocs} heap allocations over {ops} ops ({per_op:.3} per op) and {flushes} flushes"
    );
}

#[test]
fn array_replay_with_dram_allocates_under_a_tenth_per_op() {
    // The cache-sweep array cell: a 4+2 flash-disk array behind 2 MB of
    // write-through DRAM, so every write reaches the array as a parity
    // read-modify-write. Dos adds trims and writes that span several
    // stripes.
    //
    // Set-up allocates a fixed amount: the array's codec tables, its
    // stripe table and arena grown by the preload, and everything a
    // flash-disk run builds too. At scale 0.05 dos has under 300 ops, too
    // few to amortise that, so each trace is also replayed without its
    // second half, and the ops of that half are held to the bound on
    // their own.
    let config = SystemConfig::array(4, 2, vec![ChildClass::FlashDisk; 6]).with_dram(2 * MIB);
    for workload in [Workload::Mac, Workload::Dos] {
        let name = workload.name();
        let trace = workload.generate_scaled(0.05, 1994);
        let mut first_half = trace.clone();
        first_half.ops.truncate(trace.ops.len() / 2);
        let second_half = &trace.ops[first_half.ops.len()..];
        if workload == Workload::Dos {
            assert!(
                second_half.iter().any(|op| op.kind == DiskOpKind::Trim),
                "dos: no trims in the second half"
            );
            assert!(
                second_half
                    .iter()
                    .any(|op| op.kind == DiskOpKind::Write && op.blocks > 4),
                "dos: no write longer than a 4-block stripe in the second half"
            );
        }

        let (allocs, metrics) = counted_simulate(&config, &trace);
        let (first_allocs, _) = counted_simulate(&config, &first_half);

        let array = metrics.array.expect("an array run reports array counters");
        assert!(
            array.parity_updates > 0,
            "{name}: no writes reached the array"
        );
        let ops = trace.ops.len() as u64;
        let per_op = allocs as f64 / ops as f64;
        if workload == Workload::Mac {
            assert!(
                ops >= 2_000,
                "{name}: too few ops ({ops}) to amortise set-up"
            );
            assert!(
                per_op < 0.1,
                "{name}: {allocs} heap allocations over {ops} ops ({per_op:.3} per op)"
            );
        }
        let extra = allocs.saturating_sub(first_allocs);
        let per_extra_op = extra as f64 / second_half.len() as f64;
        assert!(
            per_extra_op < 0.1,
            "{name}: the second half's {} ops made {extra} heap allocations \
             ({per_extra_op:.3} per op; {allocs} over the whole run, {per_op:.3} per op)",
            second_half.len()
        );
    }
}

#[test]
fn trace_generation_allocates_a_constant_per_trace() {
    // Generation streams each file-level record through the layout into
    // the trace; what it allocates is the trace, the popularity and size
    // tables and the layout's pages, none of them per record.
    for workload in Workload::ALL {
        let before = allocations();
        let trace = workload.generate_scaled(0.05, 1994);
        let allocs = allocations() - before;
        let ops = trace.ops.len();
        assert!(ops >= 200, "{}: too few ops ({ops})", workload.name());
        assert!(
            allocs <= 16,
            "{}: {allocs} heap allocations for {ops} ops",
            workload.name()
        );
    }
}

#[test]
fn full_length_generation_allocates_a_constant_and_peaks_at_the_trace() {
    // Full-length mac is long enough that, with a core spare, generation
    // runs its interarrival clock on a helper thread that appends to the
    // trace, fed 512 loop iterations at a time; `--jobs 1` leaves no core
    // spare, so one loop runs. No other test in this binary reads the job
    // count.
    let spec = TraceSpec::mac();
    let op_bytes = std::mem::size_of::<DiskOp>() as u64;
    let reserved = (spec.expected_ops() + 16) * op_bytes;
    let mut tables = 0;
    for jobs in [1, 2] {
        exec::set_jobs(jobs);
        assert_eq!(exec::spare_core(), jobs > 1);
        let before = allocations();
        let (trace, peak) = peak_heap(|| Workload::Mac.generate(1994));
        let allocs = allocations() - before;
        let ops = trace.ops.len() as u64;
        let chunks = spec.expected_ops() / 512;
        assert!(
            allocs <= 32 && allocs * 10 < chunks,
            "--jobs {jobs}: {allocs} heap allocations for {ops} ops ({chunks} chunks)"
        );
        // This trace outgrows its reservation, and the growth holds the
        // old and the new buffer at once: on the calling thread for one
        // loop, on the helper for two passes.
        let grown = trace.ops.capacity() as u64 * op_bytes;
        let trace_bytes = if jobs == 1 {
            reserved + grown
        } else {
            reserved
        };
        let beyond = peak.saturating_sub(trace_bytes);
        if jobs == 1 {
            // The popularity, size and layout tables: about 121 KB.
            assert!(
                beyond <= 128 * 1024,
                "one loop peaked at {peak} heap bytes, {beyond} beyond the trace's {trace_bytes}"
            );
            tables = beyond;
        } else {
            // The same tables, three chunks of 512 iterations at 56 B
            // each (86 KB), the thread and its channels: a byte per op
            // held across the trace would be 162 KB more.
            assert!(
                beyond <= tables + 96 * 1024,
                "two passes peaked at {peak} heap bytes, {beyond} beyond the trace's \
                 {trace_bytes}, against {tables} for one loop"
            );
        }
    }
}

/// The mac trace at scale 0.05 and the bytes two lists of its ops'
/// `(start, end)` ranges would take: a sort-and-merge working set (one
/// list, plus a second buffer to sort it into) needs that much.
fn mac_and_its_range_lists() -> (Trace, u64) {
    let trace = Workload::Mac.generate_scaled(0.05, 1994);
    let ops = trace.ops.len() as u64;
    assert!(ops >= 2_000, "too few ops ({ops})");
    let range_lists = ops * 2 * std::mem::size_of::<(u64, u64)>() as u64;
    (trace, range_lists)
}

#[test]
fn working_set_runs_peak_heap_is_under_a_tenth_of_the_range_lists() {
    // Mac at scale 0.05 touches about 2,200 lbns, one bitmap page, in a
    // few hundred runs: the runs returned cost more than the bitmap.
    let (trace, range_lists) = mac_and_its_range_lists();
    let (runs, peak) = peak_heap(|| working_set_runs(&trace.ops));
    assert!(!runs.is_empty());
    assert!(
        peak * 10 <= range_lists,
        "working_set_runs peaked at {peak} heap bytes for {} ops in {} runs \
         (two range lists: {range_lists})",
        trace.ops.len(),
        runs.len()
    );
}

#[test]
fn working_set_blocks_peak_heap_is_under_a_tenth_of_the_range_lists() {
    let (trace, range_lists) = mac_and_its_range_lists();
    let (blocks, peak) = peak_heap(|| working_set_blocks(&trace));
    let runs = working_set_runs(&trace.ops);
    assert_eq!(blocks, runs.iter().map(|(start, end)| end - start).sum());
    assert!(
        peak * 10 <= range_lists,
        "working_set_blocks peaked at {peak} heap bytes for {} ops \
         (two range lists: {range_lists})",
        trace.ops.len()
    );
}
