//! Durability acceptance tests: the `repro durability` sweep must be
//! byte-identical at any `--jobs` count, and the array layer's
//! power-failure recovery must be idempotent — recovering twice from the
//! same crash leaves exactly the state one recovery produced.
//!
//! The jobs test is one `#[test]` on purpose: `exec::set_jobs` is
//! process-global, and the default test harness runs tests concurrently —
//! splitting the serial and parallel halves into separate tests would
//! race on the worker-count override.

use mobistore::device::array::{ArrayDevice, ChildClass};
use mobistore::device::{Device, Request};
use mobistore::experiments::durability::{self, DurabilityOptions};
use mobistore::experiments::render::{render_target, RenderOptions};
use mobistore::experiments::Scale;
use mobistore::sim::exec;
use mobistore::sim::fault::DeathSchedule;
use mobistore::sim::obs::NoopObserver;
use mobistore::sim::time::SimTime;

fn sweep_options() -> DurabilityOptions {
    DurabilityOptions {
        geometries: vec![(2, 1), (4, 2)],
        death_rates: vec![0.0, 60.0],
        rebuild_rate: 64.0,
        seed: 1994,
    }
}

#[test]
fn parallel_durability_matches_serial() {
    let opts = RenderOptions {
        durability: sweep_options(),
        ..Default::default()
    };

    exec::set_jobs(1);
    let serial = render_target("durability", Scale::quick(), &opts);
    exec::set_jobs(4);
    let parallel = render_target("durability", Scale::quick(), &opts);

    // Rendered stdout is the acceptance surface — byte-identical.
    assert_eq!(serial.text, parallel.text);

    // And the underlying floats and counters must match exactly, not
    // just after formatting truncates them.
    assert_eq!(serial.metrics.len(), parallel.metrics.len());
    for (a, b) in serial.metrics.iter().zip(&parallel.metrics) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.energy.get(), b.energy.get(), "{}", a.name);
        assert_eq!(a.read_response_ms, b.read_response_ms, "{}", a.name);
        assert_eq!(a.degraded_read_ms, b.degraded_read_ms, "{}", a.name);
        assert_eq!(a.array, b.array, "{}", a.name);
    }

    // The run actually exercised the death machinery somewhere.
    let deaths: u64 = serial
        .metrics
        .iter()
        .map(|m| m.array.expect("array counters").device_deaths)
        .sum();
    assert!(deaths > 0, "sweep at rate 60 injected no deaths");
}

#[test]
fn durability_runs_alone_match_the_rendered_sweep() {
    // `run` is a pure function of (scale, options): re-running it must
    // reproduce the same report the renderer embedded.
    let opts = sweep_options();
    let a = format!("{}", durability::run(Scale::quick(), &opts));
    let b = format!("{}", durability::run(Scale::quick(), &opts));
    assert_eq!(a, b);
}

/// Builds a 2+1 flash-disk array with one scheduled mid-run death, loads
/// it, and writes a burst of blocks up to `crash`.
fn arrange_array(crash: SimTime) -> ArrayDevice {
    let children = [
        ChildClass::FlashDisk,
        ChildClass::FlashDisk,
        ChildClass::FlashDisk,
    ];
    let mut arr = ArrayDevice::new(2, 1, &children, 1024)
        .with_deaths(DeathSchedule::explicit(vec![
            Some(SimTime::from_secs_f64(2.0)),
            None,
            None,
        ]))
        .with_rebuild_rate(32.0);
    arr.preload(0..64);
    let mut t = SimTime::from_secs_f64(0.5);
    for lbn in 0..48u64 {
        if t >= crash {
            break;
        }
        let written = arr.write(t, Request::blocks(lbn, 1, 1024), &mut NoopObserver);
        written.expect("write under <= m losses");
        t = SimTime::from_nanos(t.as_nanos() + 50_000_000);
    }
    arr
}

#[test]
fn array_recovery_is_idempotent() {
    let crash = SimTime::from_secs_f64(3.0);

    // One recovery.
    let mut once = arrange_array(crash);
    once.power_fail(crash, &mut NoopObserver);
    let snap_once = once.snapshot();

    // Recovering again from the same instant must change nothing: the
    // same blocks, the same generations, the same unreadable set.
    let mut twice = arrange_array(crash);
    twice.power_fail(crash, &mut NoopObserver);
    twice.power_fail(crash, &mut NoopObserver);
    assert_eq!(snap_once, twice.snapshot());
    assert_eq!(once.unreadable_blocks(), twice.unreadable_blocks());

    // And recovery never loses acked data under <= m deaths.
    assert!(once.unreadable_blocks().is_empty());
    let mut readable = once;
    for lbn in 0..48u64 {
        let req = Request::blocks(lbn, 1, 1024);
        let (_, r) = readable.read(SimTime::from_secs_f64(10.0), req, &mut NoopObserver);
        assert!(r.is_ok(), "block {lbn} unreadable after recovery");
    }
}
