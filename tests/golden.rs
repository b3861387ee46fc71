//! Golden snapshot tests: the rendered output of every table and figure
//! at `--scale 0.02 --seed 1994` is committed under `tests/golden/`, so a
//! refactor that silently shifts a paper number fails here instead of
//! landing unnoticed. A zero-rate fault plan must reproduce these bytes
//! exactly — the fixtures double as the fault-injection no-op proof.
//!
//! After an intentional output change, regenerate the fixtures with
//! `scripts/update_golden.sh` and review the diff like any other code.

use mobistore::experiments::render::{render_target, RenderOptions};
use mobistore::experiments::Scale;
use mobistore::sim::fleet::ChaosConfig;

/// The targets with committed fixtures: the paper's tables and figures,
/// plus the crash-consistency torture sweep (a quiet fault plan — its
/// fixture doubles as proof the sweep is deterministic end to end) and
/// the bit-error integrity sweep (whose zero-rate rows double as proof
/// that a quiet integrity plan draws no randomness) and the 64-shard
/// fleet run (whose merged percentiles pin the metric-merge semantics)
/// and the host profile's simulation counts (whose ops/events/spans
/// columns pin the observer's event and span cardinalities; the target
/// times nothing, so the fixture is stable) and the erasure-coded
/// durability sweep (whose zero-death-rate rows double as proof that a
/// quiet death schedule draws no randomness).
const GOLDEN_TARGETS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "crashcheck",
    "integrity",
    "fleet",
    "profile",
    "durability",
];

fn fixture_path(target: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{target}.txt"))
}

#[test]
fn rendered_targets_match_golden_fixtures() {
    let opts = RenderOptions::default();
    let mut failures = Vec::new();
    for target in GOLDEN_TARGETS {
        let path = fixture_path(target);
        let expect = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        let got = render_target(target, Scale::quick(), &opts).text;
        if got != expect {
            failures.push(target);
            // Print a small diff context for the first mismatching line.
            for (i, (g, e)) in got.lines().zip(expect.lines()).enumerate() {
                if g != e {
                    eprintln!("{target}: first mismatch at line {}:", i + 1);
                    eprintln!("  expected: {e}");
                    eprintln!("  rendered: {g}");
                    break;
                }
            }
            if got.lines().count() != expect.lines().count() {
                eprintln!(
                    "{target}: line count {} vs fixture {}",
                    got.lines().count(),
                    expect.lines().count()
                );
            }
        }
    }
    assert!(
        failures.is_empty(),
        "output drifted from tests/golden fixtures for {failures:?}; if the \
         change is intentional, run scripts/update_golden.sh and commit the diff"
    );
}

/// The 15th fixture: the fleet target under injected chaos panics. Pins
/// the supervisor's quarantine section — which shards a 0.5 panic rate
/// quarantines at seed 1994, their retry accounting, the coverage line,
/// and that the survivor rollups stay byte-stable when their neighbours
/// panic. (The quiet `fleet.txt` fixture above proves the section is
/// absent from clean runs.)
#[test]
fn chaos_fleet_matches_golden_fixture() {
    let mut opts = RenderOptions::default();
    opts.fleet.chaos = ChaosConfig {
        panic_rate: 0.5,
        fail_point: None,
    };
    let path = fixture_path("fleet_chaos");
    let expect = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let got = render_target("fleet", Scale::quick(), &opts).text;
    if got != expect {
        for (i, (g, e)) in got.lines().zip(expect.lines()).enumerate() {
            if g != e {
                eprintln!("fleet_chaos: first mismatch at line {}:", i + 1);
                eprintln!("  expected: {e}");
                eprintln!("  rendered: {g}");
                break;
            }
        }
    }
    assert_eq!(
        got, expect,
        "chaos fleet output drifted from tests/golden/fleet_chaos.txt; if \
         intentional, run scripts/update_golden.sh and commit the diff"
    );
    assert!(got.contains("quarantined:"), "fixture lost its ledger");
}

/// The `mobistore-fleet-ckpt/1` format, pinned across versions: the
/// committed checkpoint was written by an earlier build aborting the
/// fixture's fleet run after chunk 1 of 2 (`--chaos-fail-point 2`).
/// Resuming it must reproduce `fleet.txt` byte for byte, so a codec
/// change that cannot read yesterday's checkpoints fails here.
#[test]
fn committed_checkpoint_resumes_to_the_fleet_fixture() {
    let mut opts = RenderOptions::default();
    opts.fleet.resume_from = Some(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_resume.ckpt"),
    );
    let path = fixture_path("fleet");
    let expect = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    let got = render_target("fleet", Scale::quick(), &opts).text;
    assert_eq!(
        got, expect,
        "resuming tests/golden/fleet_resume.ckpt drifted from tests/golden/fleet.txt"
    );
}
