//! Property-based tests on the core data structures and invariants.
//!
//! The build environment has no registry access, so instead of proptest
//! these use the workspace's own deterministic [`SimRng`] to drive seeded
//! randomized cases: each property runs a few hundred generated scenarios
//! with case indices as RNG streams, so failures are reproducible by
//! construction (re-run the same test, get the same cases). On failure the
//! case index is included in the assertion message.

use std::collections::{BTreeSet, HashMap};

use mobistore::cache::lru::LruSet;
use mobistore::device::params::intel_datasheet;
use mobistore::device::{Device, QueueDiscipline, Request};
use mobistore::flash::store::{CleanerMode, FlashCardConfig, FlashCardStore, VictimPolicy};
use mobistore::sim::obs::NoopObserver;
use mobistore::sim::rng::SimRng;
use mobistore::sim::stats::OnlineStats;
use mobistore::sim::time::{SimDuration, SimTime};
use mobistore::trace::layout::FileLayout;
use mobistore::trace::record::{DiskOpKind, FileId, FileRecord, Op};

/// One RNG per case, keyed by a per-property stream so properties don't
/// share sequences.
fn case_rng(stream: u64, case: u64) -> SimRng {
    SimRng::seed_with_stream(0x9e37_79b9_7f4a_7c15 ^ case, stream)
}

// ---------------------------------------------------------------------
// LRU: model-check against a naive Vec-based reference.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum LruOp {
    Insert(u64),
    Touch(u64),
    Remove(u64),
    PopLru,
}

/// One LRU op on a key among the 32 from `base`.
fn lru_op(rng: &mut SimRng, base: u64) -> LruOp {
    match rng.below(4) {
        0 => LruOp::Insert(base + rng.below(32)),
        1 => LruOp::Touch(base + rng.below(32)),
        2 => LruOp::Remove(base + rng.below(32)),
        _ => LruOp::PopLru,
    }
}

/// A straightforward reference: most-recent at the front.
#[derive(Default)]
struct NaiveLru {
    cap: usize,
    items: Vec<u64>,
}

impl NaiveLru {
    fn touch(&mut self, k: u64) -> bool {
        if let Some(i) = self.items.iter().position(|&x| x == k) {
            let k = self.items.remove(i);
            self.items.insert(0, k);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, k: u64) -> Option<u64> {
        if self.touch(k) {
            return None;
        }
        let evicted = if self.items.len() == self.cap {
            self.items.pop()
        } else {
            None
        };
        self.items.insert(0, k);
        evicted
    }
    fn remove(&mut self, k: u64) -> bool {
        if let Some(i) = self.items.iter().position(|&x| x == k) {
            self.items.remove(i);
            true
        } else {
            false
        }
    }
    fn pop_lru(&mut self) -> Option<u64> {
        self.items.pop()
    }
}

#[test]
fn lru_matches_reference() {
    for case in 0..256u64 {
        let mut rng = case_rng(1, case);
        let cap = rng.range_inclusive(1, 11) as usize;
        let n_ops = rng.below(200);
        // Odd cases' keys straddle the index's page boundary at 4,096, as
        // the card properties' OP_BASE does.
        let base = if case % 2 == 1 { 4_096 - 16 } else { 0 };
        let mut real = LruSet::new(cap);
        let mut model = NaiveLru {
            cap,
            items: Vec::new(),
        };
        for _ in 0..n_ops {
            match lru_op(&mut rng, base) {
                LruOp::Insert(k) => assert_eq!(real.insert(k), model.insert(k), "case {case}"),
                LruOp::Touch(k) => assert_eq!(real.touch(k), model.touch(k), "case {case}"),
                LruOp::Remove(k) => assert_eq!(real.remove(k), model.remove(k), "case {case}"),
                LruOp::PopLru => assert_eq!(real.pop_lru(), model.pop_lru(), "case {case}"),
            }
            assert_eq!(real.len(), model.items.len(), "case {case}");
            let order: Vec<u64> = real.iter_mru().collect();
            assert_eq!(&order, &model.items, "MRU order diverged (case {case})");
        }
    }
}

// ---------------------------------------------------------------------
// Flash card: random workloads keep every internal invariant (the slot
// table included) under both cleaner modes and every victim policy, and
// the live-block map matches a reference set.
// ---------------------------------------------------------------------

/// First lbn the random card ops address: their 600-block window
/// straddles the card's lbn table page boundary at 4,096.
const OP_BASE: u64 = 3_700;

#[derive(Debug, Clone)]
enum CardOp {
    Write { lbn: u64, blocks: u32 },
    Trim { lbn: u64, blocks: u32 },
    Read { lbn: u64, blocks: u32 },
    Idle { ms: u64 },
}

fn card_op(rng: &mut SimRng) -> CardOp {
    match rng.below(6) {
        0..=2 => CardOp::Write {
            lbn: OP_BASE + rng.below(600),
            blocks: rng.range_inclusive(1, 7) as u32,
        },
        3 => CardOp::Trim {
            lbn: OP_BASE + rng.below(600),
            blocks: rng.range_inclusive(1, 7) as u32,
        },
        4 => CardOp::Read {
            lbn: OP_BASE + rng.below(600),
            blocks: rng.range_inclusive(1, 3) as u32,
        },
        _ => CardOp::Idle {
            ms: rng.range_inclusive(1, 5_000),
        },
    }
}

/// Applies `op` at `now` to a card of 1-KB blocks, returning the time the
/// next op issues at. These properties never wear a card out, and trims
/// are untimed: stamped when the card is next free.
fn apply(card: &mut FlashCardStore, op: &CardOp, now: SimTime) -> SimTime {
    let svc = match *op {
        CardOp::Write { lbn, blocks } => {
            let written = card.write(now, Request::blocks(lbn, blocks, 1024), &mut NoopObserver);
            written.unwrap_or_else(|e| panic!("{e}"))
        }
        CardOp::Read { lbn, blocks } => {
            card.read(now, Request::blocks(lbn, blocks, 1024), &mut NoopObserver)
                .0
        }
        CardOp::Trim { lbn, blocks } => {
            let req = Request::blocks(lbn, blocks, 1024);
            card.trim(card.free_at(), req, &mut NoopObserver);
            return now;
        }
        CardOp::Idle { ms } => return now + SimDuration::from_millis(ms),
    };
    assert!(svc.end >= svc.start);
    now.max(svc.end)
}

/// Mirrors `op` into the set of live blocks.
fn track(live: &mut BTreeSet<u64>, op: &CardOp) {
    match *op {
        CardOp::Write { lbn, blocks } => live.extend(lbn..lbn + u64::from(blocks)),
        CardOp::Trim { lbn, blocks } => {
            live.retain(|b| !(lbn..lbn + u64::from(blocks)).contains(b))
        }
        _ => {}
    }
}

/// The card's mapped blocks, read from its ascending snapshot, are
/// exactly the reference set.
fn assert_live_set(card: &FlashCardStore, model: &BTreeSet<u64>, case: u64) {
    let mapped: Vec<u64> = card.snapshot().iter().map(|e| e.lbn).collect();
    let expected: Vec<u64> = model.iter().copied().collect();
    assert_eq!(mapped, expected, "live blocks diverged (case {case})");
}

/// The card the invariant properties drive: 16 segments x 128 KB at 1-KB
/// blocks (2048 blocks). Cases cycle through both cleaner modes and all
/// four victim policies; case 0 is the background greedy card.
fn property_card(case: u64) -> FlashCardStore {
    const MODES: [CleanerMode; 2] = [CleanerMode::Background, CleanerMode::OnDemand];
    const POLICIES: [VictimPolicy; 4] = [
        VictimPolicy::GreedyMinLive,
        VictimPolicy::Fifo,
        VictimPolicy::CostBenefit,
        VictimPolicy::WearAware,
    ];
    FlashCardStore::new(FlashCardConfig {
        params: intel_datasheet(),
        block_size: 1024,
        capacity_bytes: 2 * 1024 * 1024,
        mode: MODES[(case % 2) as usize],
        victim_policy: POLICIES[(case / 2 % 4) as usize],
        queueing: QueueDiscipline::Fifo,
    })
}

#[test]
fn flash_card_invariants_hold() {
    for case in 0..128u64 {
        let mut rng = case_rng(2, case);
        let preload = rng.below(600);
        let n_ops = rng.below(150);
        let mut card = property_card(case);
        card.preload_aged(1000..1000 + preload);
        let mut model: BTreeSet<u64> = (1000..1000 + preload).collect();

        let mut now = SimTime::ZERO;
        for _ in 0..n_ops {
            let op = card_op(&mut rng);
            now = apply(&mut card, &op, now);
            track(&mut model, &op);
            card.check_invariants();
            assert_eq!(card.live_blocks(), model.len() as u64, "case {case}");
            assert_live_set(&card, &model, case);
            assert!(
                card.live_blocks() + card.free_blocks() <= card.capacity_blocks(),
                "case {case}"
            );
        }
        // Energy is finite and non-negative.
        assert!(card.energy().get() >= 0.0, "case {case}");
        assert!(card.energy().get().is_finite(), "case {case}");
    }
}

// ---------------------------------------------------------------------
// Flash card under fault injection: random fault schedules (transient
// retries, permanent segment retirement, power failures mid-cleaning)
// never break the internal invariants, never lose live data, and the
// block census always tiles the capacity:
// live + free + dead + retired == capacity.
// ---------------------------------------------------------------------

#[test]
fn flash_card_invariants_hold_under_faults() {
    use mobistore::sim::fault::FaultConfig;

    for case in 0..96u64 {
        let mut rng = case_rng(9, case);
        let rate = match rng.below(3) {
            0 => 0.0,
            1 => 1e-3,
            _ => 0.05,
        };
        let fault = FaultConfig {
            write_fail_rate: rate,
            erase_fail_rate: rate,
            permanent_rate: 0.2,
            seed: case,
            ..FaultConfig::none()
        };
        let preload = rng.below(600);
        let n_ops = rng.below(150);
        let mut card = property_card(case).with_faults(fault);
        card.preload_aged(1000..1000 + preload);
        let mut model: BTreeSet<u64> = (1000..1000 + preload).collect();

        let mut now = SimTime::ZERO;
        for _ in 0..n_ops {
            let op = card_op(&mut rng);
            now = apply(&mut card, &op, now);
            track(&mut model, &op);
            // Occasionally yank the power mid-whatever-was-happening.
            if rng.chance(0.1) {
                let svc = card.power_fail(now, &mut NoopObserver);
                now = now.max(svc.end);
            }
            card.check_invariants();
            let census = card.census();
            assert_eq!(
                census.live + census.free + census.dead + census.retired,
                card.capacity_blocks(),
                "census does not tile capacity (case {case})"
            );
            assert_eq!(census.retired, card.retired_blocks(), "case {case}");
            // Faults never lose live data: retries eventually succeed and
            // only segments holding no live blocks are retired.
            assert_eq!(card.live_blocks(), model.len() as u64, "case {case}");
            assert_live_set(&card, &model, case);
            assert!(card.live_blocks() <= card.usable_blocks(), "case {case}");
        }
        let c = card.counters();
        if rate == 0.0 {
            assert_eq!(c.write_retries + c.erase_retries, 0, "case {case}");
            assert_eq!(c.segments_retired, 0, "case {case}");
        }
        assert!(card.energy().get().is_finite(), "case {case}");
    }
}

// ---------------------------------------------------------------------
// Flash disk: the asynchronous cleaner conserves sectors — everything
// written becomes garbage, and garbage only ever turns into pre-erased
// pool space.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum FdOp {
    Write { kib: u64 },
    Read { kib: u64 },
    Idle { ms: u64 },
}

fn fd_op(rng: &mut SimRng) -> FdOp {
    match rng.below(5) {
        0 | 1 => FdOp::Write {
            kib: rng.range_inclusive(1, 63),
        },
        2 => FdOp::Read {
            kib: rng.range_inclusive(1, 63),
        },
        _ => FdOp::Idle {
            ms: rng.range_inclusive(1, 10_000),
        },
    }
}

#[test]
fn flash_disk_pool_is_conserved() {
    use mobistore::device::flashdisk::FlashDisk;
    use mobistore::device::params::sdp5a_datasheet;

    let request = |kib: u64| Request::new(0, kib * 1024);

    for case in 0..256u64 {
        let mut rng = case_rng(3, case);
        let n_ops = rng.below(100);
        let params = sdp5a_datasheet();
        let initial_pool = params.spare_pool_bytes;
        let mut fd = FlashDisk::new(params);
        let mut now = SimTime::ZERO;
        let mut written = 0u64;
        for _ in 0..n_ops {
            match fd_op(&mut rng) {
                FdOp::Write { kib } => {
                    let svc = fd.write(now, request(kib), &mut NoopObserver);
                    now = svc.expect("flash-disk writes never fail").end;
                    written += kib * 1024;
                }
                FdOp::Read { kib } => {
                    let (svc, _) = fd.read(now, request(kib), &mut NoopObserver);
                    now = svc.end;
                }
                FdOp::Idle { ms } => now += SimDuration::from_millis(ms),
            }
            // Conservation: pool + outstanding garbage = initial pool +
            // everything ever written (each write both consumes erased
            // space and creates equal garbage). The pool alone can never
            // exceed that bound.
            let c = fd.counters();
            assert_eq!(c.bytes_written, written, "case {case}");
            assert!(fd.erased_pool() <= initial_pool + written, "case {case}");
            assert!(
                c.bytes_pre_erased + c.bytes_erased_on_demand == written,
                "case {case}"
            );
            assert!(
                fd.energy().get() >= 0.0 && fd.energy().get().is_finite(),
                "case {case}"
            );
        }
        // After enough idle time, all garbage is reclaimed. Pool-backed
        // writes return their sectors to the pool (conservation), while
        // deficit writes erased fresh sectors inline, growing the erased
        // population by exactly the on-demand bytes.
        fd.finish(now + SimDuration::from_hours(1), &mut NoopObserver);
        let c = fd.counters();
        assert_eq!(
            fd.erased_pool(),
            initial_pool + c.bytes_erased_on_demand,
            "case {case}"
        );
    }
}

// ---------------------------------------------------------------------
// File layout: no two live files ever own the same block.
// ---------------------------------------------------------------------

#[test]
fn layout_never_aliases_files() {
    for case in 0..256u64 {
        let mut rng = case_rng(4, case);
        let n_ops = rng.below(120);
        let mut layout = FileLayout::new(1024);
        let mut disk_ops = Vec::new();
        // block -> owning file, from the emitted write/trim stream.
        let mut owner: HashMap<u64, u64> = HashMap::new();
        let mut t = 0u64;
        for _ in 0..n_ops {
            t += 1;
            let rec = if rng.below(5) < 4 {
                FileRecord {
                    time: SimTime::from_nanos(t),
                    op: if rng.chance(0.5) { Op::Read } else { Op::Write },
                    file: FileId(rng.below(12)),
                    offset: rng.below(64) * 1024,
                    size: rng.range_inclusive(1, 31) * 1024,
                }
            } else {
                FileRecord {
                    time: SimTime::from_nanos(t),
                    op: Op::Delete,
                    file: FileId(rng.below(12)),
                    offset: 0,
                    size: 0,
                }
            };
            disk_ops.clear();
            layout.apply(&rec, &mut disk_ops);
            for &disk_op in &disk_ops {
                let range = disk_op.lbn..disk_op.lbn + u64::from(disk_op.blocks);
                match disk_op.kind {
                    DiskOpKind::Trim => {
                        for b in range {
                            owner.remove(&b);
                        }
                    }
                    DiskOpKind::Read | DiskOpKind::Write => {
                        for b in range {
                            if let Some(&prev) = owner.get(&b) {
                                assert_eq!(
                                    prev, disk_op.file.0,
                                    "block {} owned by f{} but accessed by f{} (case {case})",
                                    b, prev, disk_op.file.0
                                );
                            } else {
                                owner.insert(b, disk_op.file.0);
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// OnlineStats: streaming moments match the two-pass computation; merge
// equals concatenation.
// ---------------------------------------------------------------------

#[test]
fn online_stats_match_naive() {
    for case in 0..256u64 {
        let mut rng = case_rng(5, case);
        let n = rng.range_inclusive(1, 299) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let split = (rng.below(300) as usize).min(xs.len());

        let mut s = OnlineStats::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            (s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0),
            "case {case}"
        );
        assert!(
            (s.population_std() - var.sqrt()).abs() <= 1e-5 * var.sqrt().max(1.0),
            "case {case}"
        );

        let (mut left, mut right) = (OnlineStats::new(), OnlineStats::new());
        for &x in &xs[..split] {
            left.record(x);
        }
        for &x in &xs[split..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), s.count(), "case {case}");
        assert!(
            (left.mean() - s.mean()).abs() <= 1e-6 * s.mean().abs().max(1.0),
            "case {case}"
        );
        assert_eq!(left.max(), s.max(), "case {case}");
        assert_eq!(left.min(), s.min(), "case {case}");
    }
}

// ---------------------------------------------------------------------
// Time arithmetic: durations form a sane ordered monoid.
// ---------------------------------------------------------------------

#[test]
fn duration_arithmetic_is_consistent() {
    for case in 0..512u64 {
        let mut rng = case_rng(6, case);
        let a = rng.below(1 << 40);
        let b = rng.below(1 << 40);
        let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
        assert_eq!(da + db, db + da, "case {case}");
        assert_eq!((da + db).saturating_sub(db), da, "case {case}");
        assert_eq!(da.max(db).min(da.min(db)), da.min(db), "case {case}");
        let t = SimTime::from_nanos(a);
        assert_eq!((t + db) - db, t, "case {case}");
        assert_eq!((t + db) - t, db, "case {case}");
    }
}

#[test]
fn rng_streams_reproduce() {
    for case in 0..128u64 {
        let mut meta = case_rng(7, case);
        let seed = meta.next_u64();
        let n = meta.range_inclusive(1, 63);
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..n {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
        }
        // Uniform sampling stays in range.
        for _ in 0..n {
            let x = a.below(17);
            assert!(x < 17, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// The parallel executor: order preservation and serial equivalence on
// randomized inputs.
// ---------------------------------------------------------------------

#[test]
fn parallel_map_equals_serial_map() {
    use mobistore::sim::exec::parallel_map;
    for case in 0..32u64 {
        let mut rng = case_rng(8, case);
        let n = rng.below(500) as usize;
        let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let f = |&x: &u64| x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(17);
        let serial: Vec<u64> = items.iter().map(f).collect();
        assert_eq!(parallel_map(&items, f), serial, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Latency histogram percentiles vs an exact sorted-vector quantile.
// ---------------------------------------------------------------------

#[test]
fn histogram_percentiles_track_exact_quantiles() {
    use mobistore::sim::hist::Histogram;
    for case in 0..200u64 {
        let mut rng = case_rng(9, case);
        let n = rng.range_inclusive(1, 400) as usize;
        // Spread samples over many octaves so cases exercise sub-bucket
        // resolution at very different magnitudes.
        let mut samples: Vec<u64> = (0..n).map(|_| rng.next_u64() >> rng.below(55)).collect();
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            // The exact nearest-rank quantile of the raw samples...
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            let est = hist.percentile_nanos(q);
            // ...must land in the same log-linear bucket: the estimate is
            // that bucket's lower bound, so the error is below one bucket
            // width (and the relative error below one sub-bucket step).
            let (lo, hi) = Histogram::bucket_bounds(exact);
            assert_eq!(est, lo, "case {case} q {q}: {est} vs {exact}");
            // The topmost bucket's upper bound saturates at u64::MAX, so
            // there (and only there) the exact value may sit on the bound.
            assert!(
                est <= exact && (exact - est < hi - lo || hi == u64::MAX),
                "case {case} q {q}: {est} not within bucket of {exact}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Recovery idempotence: a second power_fail() at the same instant is a
// pure re-scan — it changes no structural state (map, census, bad
// segments, generations, read-only flag) and no counter other than the
// recovery accounting itself. Cases with background cleaning running at
// the failure instant exercise the orphaned-job reclaim path; the second
// call must find nothing left to reclaim.
// ---------------------------------------------------------------------

#[test]
fn flash_card_recovery_is_idempotent() {
    use mobistore::sim::fault::FaultConfig;

    for case in 0..48u64 {
        let make_card = || {
            let fault = FaultConfig {
                write_fail_rate: if case % 3 == 0 { 0.05 } else { 0.0 },
                erase_fail_rate: if case % 3 == 0 { 0.05 } else { 0.0 },
                permanent_rate: 0.2,
                seed: case,
                ..FaultConfig::none()
            };
            FlashCardStore::new(FlashCardConfig {
                params: intel_datasheet(),
                block_size: 1024,
                capacity_bytes: 2 * 1024 * 1024,
                mode: CleanerMode::Background,
                victim_policy: VictimPolicy::GreedyMinLive,
                queueing: QueueDiscipline::Fifo,
            })
            .with_faults(fault)
        };
        let mut once = make_card();
        let mut twice = make_card();

        // Identical histories: same preload, same op stream.
        let mut rng = case_rng(21, case);
        let preload = rng.below(600);
        once.preload_aged(1000..1000 + preload);
        twice.preload_aged(1000..1000 + preload);
        let n_ops = rng.range_inclusive(1, 120);
        let mut now = SimTime::ZERO;
        for _ in 0..n_ops {
            let op = card_op(&mut rng);
            for card in [&mut once, &mut twice] {
                now = apply(card, &op, now);
            }
        }

        // Crash soon after the last op, while background cleaning may
        // still be running (the short gap leaves jobs unfinished).
        let at = now + SimDuration::from_millis(rng.below(20));
        once.power_fail(at, &mut NoopObserver);
        twice.power_fail(at, &mut NoopObserver);
        twice.power_fail(at, &mut NoopObserver);
        once.check_invariants();
        twice.check_invariants();

        assert_eq!(
            once.snapshot(),
            twice.snapshot(),
            "case {case}: map diverged"
        );
        assert_eq!(
            once.census(),
            twice.census(),
            "case {case}: census diverged"
        );
        assert_eq!(
            once.bad_segments(),
            twice.bad_segments(),
            "case {case}: retirement diverged"
        );
        assert_eq!(
            once.next_generation(),
            twice.next_generation(),
            "case {case}: generation counter diverged"
        );
        assert_eq!(
            once.is_read_only(),
            twice.is_read_only(),
            "case {case}: read-only flag diverged"
        );

        // Only the recovery accounting itself may differ, by exactly one
        // extra (empty) scan.
        let a = once.counters();
        let b = twice.counters();
        assert_eq!(b.power_failures, a.power_failures + 1, "case {case}");
        assert!(b.recovery_time >= a.recovery_time, "case {case}");
        assert_eq!(
            (
                a.ops,
                a.bytes_read,
                a.bytes_written,
                a.erasures,
                a.blocks_copied
            ),
            (
                b.ops,
                b.bytes_read,
                b.bytes_written,
                b.erasures,
                b.blocks_copied
            ),
            "case {case}: I/O counters diverged"
        );
        assert_eq!(
            (
                a.write_retries,
                a.erase_retries,
                a.segments_retired,
                a.eol_write_rejections
            ),
            (
                b.write_retries,
                b.erase_retries,
                b.segments_retired,
                b.eol_write_rejections
            ),
            "case {case}: fault counters diverged"
        );
    }
}

#[test]
fn magnetic_disk_recovery_is_idempotent() {
    use mobistore::device::disk::SpinDownPolicy;
    use mobistore::device::params::cu140_datasheet;
    use mobistore::device::MagneticDisk;

    for case in 0..48u64 {
        let mut rng = case_rng(22, case);
        let policy = match rng.below(2) {
            0 => SpinDownPolicy::Never,
            _ => SpinDownPolicy::Fixed(SimDuration::from_secs_f64(2.0)),
        };
        let make_disk =
            || MagneticDisk::with_policy(cu140_datasheet(), policy).with_fat_scan_bytes(64 * 1024);
        let mut once = make_disk();
        let mut twice = make_disk();

        let n_ops = rng.range_inclusive(1, 40);
        let mut now = SimTime::ZERO;
        for _ in 0..n_ops {
            let read = rng.below(2) == 0;
            let bytes = (1 + rng.below(64)) * 1024;
            let file = rng.below(8);
            let lbn = rng.below(10_000);
            let op_end = now;
            let req = Request::new(lbn, bytes).of_file(file);
            for disk in [&mut once, &mut twice] {
                let svc = if read {
                    disk.read(now, req, &mut NoopObserver).0
                } else {
                    let written = disk.write(now, req, &mut NoopObserver);
                    written.expect("disk writes never fail")
                };
                assert!(svc.end >= svc.start, "case {case}");
            }
            now = op_end + SimDuration::from_millis(1 + rng.below(3000));
        }

        let at = now;
        once.power_fail(at, &mut NoopObserver);
        twice.power_fail(at, &mut NoopObserver);
        twice.power_fail(at, &mut NoopObserver);

        let a = once.counters();
        let b = twice.counters();
        assert_eq!(b.power_failures, a.power_failures + 1, "case {case}");
        assert_eq!(a.ops, b.ops, "case {case}: op counters diverged");

        // The doubled recovery must not change what the disk does next:
        // an identical probe access long after both recoveries finished
        // costs exactly the same and leaves identical counter deltas.
        let probe_at = at + SimDuration::from_secs_f64(3600.0);
        let probe = Request::new(512, 8 * 1024).of_file(3);
        let (pa, _) = once.read(probe_at, probe, &mut NoopObserver);
        let (pb, _) = twice.read(probe_at, probe, &mut NoopObserver);
        assert_eq!(
            pa.end - pa.start,
            pb.end - pb.start,
            "case {case}: probe service time diverged"
        );
        assert_eq!(pa.start, pb.start, "case {case}: probe start diverged");
        let a2 = once.counters();
        let b2 = twice.counters();
        assert_eq!(
            (a2.ops - a.ops, a2.bytes_read - a.bytes_read),
            (b2.ops - b.ops, b2.bytes_read - b.bytes_read),
            "case {case}: probe counter deltas diverged"
        );
    }
}

// ---------------------------------------------------------------------
// Histogram merge: commutative, associative, empty-identity, and the
// merged percentiles equal the concatenated stream's percentiles (the
// merge is a bucket-wise add, so the merged histogram IS the histogram
// of the concatenation — and its percentile estimates stay within one
// 1/32-octave sub-bucket of the exact concatenated-sample quantiles).
// ---------------------------------------------------------------------

#[test]
fn histogram_merge_equals_concatenation() {
    use mobistore::sim::hist::Histogram;

    let hist_of = |samples: &[u64]| {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    };
    for case in 0..200u64 {
        let mut rng = case_rng(23, case);
        let gen = |rng: &mut SimRng| -> Vec<u64> {
            let n = rng.below(200) as usize;
            (0..n).map(|_| rng.next_u64() >> rng.below(55)).collect()
        };
        let (xs, ys, zs) = (gen(&mut rng), gen(&mut rng), gen(&mut rng));
        let (a, b, c) = (hist_of(&xs), hist_of(&ys), hist_of(&zs));

        // Commutative and associative, exactly (bucket-wise u64 adds).
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}: merge not commutative");
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "case {case}: merge not associative");

        // Empty is an identity on both sides.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a, "case {case}: right identity");
        let mut id = Histogram::new();
        id.merge(&a);
        assert_eq!(id, a, "case {case}: left identity");

        // Merged == histogram of the concatenated stream, so percentiles
        // agree exactly...
        let mut concat = xs.clone();
        concat.extend(&ys);
        let whole = hist_of(&concat);
        assert_eq!(ab, whole, "case {case}: merge != concatenation");

        // ...and track the exact concatenated-sample quantiles within one
        // log-linear sub-bucket (1/32 octave).
        if concat.is_empty() {
            continue;
        }
        concat.sort_unstable();
        let n = concat.len();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = concat[rank - 1];
            let est = ab.percentile_nanos(q);
            let (lo, hi) = Histogram::bucket_bounds(exact);
            assert_eq!(est, lo, "case {case} q {q}");
            assert!(
                est <= exact && (exact - est < hi - lo || hi == u64::MAX),
                "case {case} q {q}: {est} more than a sub-bucket from {exact}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Summary merge: merging frozen summaries matches summarizing the
// concatenated stream; bit-exact commutativity; empty identity. (Exact
// associativity is not claimed — float addition regroups — so the
// three-way check uses a relative tolerance.)
// ---------------------------------------------------------------------

#[test]
fn summary_merge_matches_concatenated_stream() {
    use mobistore::sim::stats::Summary;

    let summarize = |xs: &[f64]| {
        let mut s = OnlineStats::new();
        for &x in xs {
            s.record(x);
        }
        s.summary()
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    for case in 0..200u64 {
        let mut rng = case_rng(24, case);
        let gen = |rng: &mut SimRng| -> Vec<f64> {
            let n = rng.below(150) as usize;
            (0..n).map(|_| rng.uniform(0.0, 1e4)).collect()
        };
        let (xs, ys, zs) = (gen(&mut rng), gen(&mut rng), gen(&mut rng));
        let (a, b, c) = (summarize(&xs), summarize(&ys), summarize(&zs));

        // Merge == summarize(concatenation), within float tolerance.
        let mut concat = xs.clone();
        concat.extend(&ys);
        let whole = summarize(&concat);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.count, whole.count, "case {case}");
        assert_eq!(ab.min, whole.min, "case {case}");
        assert_eq!(ab.max, whole.max, "case {case}");
        assert!(close(ab.mean, whole.mean), "case {case}: mean");
        assert!(close(ab.std, whole.std), "case {case}: std");

        // Bit-exact commutativity (the merge is written symmetrically).
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}: merge not commutative");

        // Associative within tolerance.
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        assert_eq!(ab_c.count, a_bc.count, "case {case}");
        assert!(close(ab_c.mean, a_bc.mean), "case {case}: assoc mean");
        assert!(close(ab_c.std, a_bc.std), "case {case}: assoc std");

        // Empty is an identity on both sides.
        let mut id = a;
        id.merge(&Summary::default());
        assert_eq!(id, a, "case {case}: right identity");
        let mut id = Summary::default();
        id.merge(&a);
        assert_eq!(id, a, "case {case}: left identity");
    }
}

// ---------------------------------------------------------------------
// Metrics merge: counters add exactly, histograms concatenate, energy
// adds, duration takes the max, and Metrics::empty is an identity —
// checked on real simulation outputs, not synthetic rows.
// ---------------------------------------------------------------------

#[test]
fn metrics_merge_combines_runs() {
    use mobistore::core::config::SystemConfig;
    use mobistore::core::metrics::Metrics;
    use mobistore::device::params::{cu140_datasheet, sdp5_datasheet};
    use mobistore::Workload;

    let run = |cfg: &SystemConfig, seed: u64| {
        let trace = Workload::Synth.generate_scaled(0.02, seed);
        mobistore::simulate(cfg, &trace)
    };
    let disk = SystemConfig::disk(cu140_datasheet()).with_dram(1 << 20);
    let flash = SystemConfig::flash_disk(sdp5_datasheet()).with_dram(1 << 20);
    for case in 0..8u64 {
        let a = run(&disk, 100 + case);
        let b = run(&flash, 200 + case);

        let mut ab = a.clone();
        ab.merge(&b);
        assert_eq!(
            ab.overall_response_ms.count,
            a.overall_response_ms.count + b.overall_response_ms.count,
            "case {case}"
        );
        assert_eq!(ab.energy, a.energy + b.energy, "case {case}");
        assert_eq!(ab.duration, a.duration.max(b.duration), "case {case}");
        let mut whole = a.overall_latency.clone();
        whole.merge(&b.overall_latency);
        assert_eq!(ab.overall_latency, whole, "case {case}");
        // Both component counter sets survive the merge.
        let (da, db) = (a.disk.unwrap(), b.flash_disk.unwrap());
        assert_eq!(ab.disk.unwrap().ops, da.ops, "case {case}");
        assert_eq!(ab.flash_disk.unwrap().ops, db.ops, "case {case}");

        // Commutative up to the label: same bytes either way.
        let mut ba = b.clone();
        ba.merge(&a);
        let strip = |m: &Metrics| {
            let mut m = m.clone();
            m.name = String::new();
            // The named lists append in first-seen order; sort for the
            // comparison since row order is presentation, not meaning.
            m.energy_by_component.sort_by_key(|&(n, _)| n);
            m.backend_states.sort_by_key(|&(n, _, _)| n);
            format!("{m:?}")
        };
        assert_eq!(strip(&ab), strip(&ba), "case {case}: merge not commutative");

        // Metrics::empty is an identity on both sides.
        let mut id = a.clone();
        id.merge(&Metrics::empty("zero"));
        assert_eq!(strip(&id), strip(&a), "case {case}: right identity");
        let mut id = Metrics::empty("zero");
        id.merge(&a);
        assert_eq!(strip(&id), strip(&a), "case {case}: left identity");
    }
}
