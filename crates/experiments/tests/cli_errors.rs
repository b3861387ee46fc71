//! CLI robustness: malformed invocations exit with the typed usage code
//! (2) and a clean `error:` line — never a panic or backtrace.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns")
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, got {:?}; stderr:\n{stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("error:"),
        "{args:?} stderr missing 'error:' line:\n{stderr}"
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "{args:?} stderr missing {expect_in_stderr:?}:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} panicked instead of reporting a usage error:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} stderr missing the usage line:\n{stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--frobnicate"], "unknown flag --frobnicate");
    assert_usage_error(&["--throughput-json", "x"], "unknown flag");
    assert_usage_error(&["--throughput-reps", "1"], "unknown flag");
}

#[test]
fn unknown_target_is_a_usage_error() {
    assert_usage_error(&["warp"], "unknown target warp");
    assert_usage_error(&["throughput"], "unknown target throughput");
}

#[test]
fn malformed_fault_rates_are_usage_errors() {
    assert_usage_error(&["--fault-rates", "0.1,banana"], "--fault-rates");
    assert_usage_error(&["--fault-rates", "1.5"], "--fault-rates");
    assert_usage_error(&["--fault-rates", ""], "--fault-rates");
    assert_usage_error(&["--fault-rates"], "--fault-rates");
}

#[test]
fn malformed_ber_rates_are_usage_errors() {
    assert_usage_error(&["--ber-rates", "nan"], "--ber-rates");
    assert_usage_error(&["--ber-rates", "2,-1"], "--ber-rates");
    assert_usage_error(&["--ber-rates", "0,banana"], "--ber-rates");
    assert_usage_error(&["--ber-rates", "inf"], "--ber-rates");
    assert_usage_error(&["--ber-rates", ""], "--ber-rates");
    assert_usage_error(&["--ber-rates"], "--ber-rates");
}

#[test]
fn malformed_ber_seed_is_a_usage_error() {
    assert_usage_error(&["--ber-seed", "banana"], "--ber-seed");
    assert_usage_error(&["--ber-seed", "-1"], "--ber-seed");
    assert_usage_error(&["--ber-seed"], "--ber-seed");
}

#[test]
fn malformed_scrub_interval_is_a_usage_error() {
    assert_usage_error(&["--scrub-interval", "nan"], "--scrub-interval");
    assert_usage_error(&["--scrub-interval", "-5"], "--scrub-interval");
    assert_usage_error(&["--scrub-interval", "soon"], "--scrub-interval");
    assert_usage_error(&["--scrub-interval"], "--scrub-interval");
    // Too large for the clock, or rounds to 0 ns.
    assert_usage_error(&["--scrub-interval", "1e300"], "--scrub-interval");
    assert_usage_error(&["--scrub-interval", "4e-10"], "--scrub-interval");
}

#[test]
fn malformed_fault_power_interval_is_a_usage_error() {
    assert_usage_error(&["--fault-power-interval", "nan"], "--fault-power-interval");
    assert_usage_error(&["--fault-power-interval", "-1"], "--fault-power-interval");
    assert_usage_error(&["--fault-power-interval", "inf"], "--fault-power-interval");
    assert_usage_error(
        &["--fault-power-interval", "1e300"],
        "--fault-power-interval",
    );
    assert_usage_error(
        &["--fault-power-interval", "4e-10"],
        "--fault-power-interval",
    );
}

#[test]
fn malformed_crash_seed_is_a_usage_error() {
    assert_usage_error(&["--crash-seed", "banana"], "--crash-seed");
    assert_usage_error(&["--crash-seed", "-1"], "--crash-seed");
    assert_usage_error(&["--crash-seed"], "--crash-seed");
}

#[test]
fn malformed_crash_points_is_a_usage_error() {
    assert_usage_error(&["--crash-points", "0"], "--crash-points");
    assert_usage_error(&["--crash-points", "some"], "--crash-points");
}

#[test]
fn malformed_scale_is_a_usage_error() {
    assert_usage_error(&["--scale", "2.0"], "--scale");
    assert_usage_error(&["--scale", "nope"], "--scale");
}

#[test]
fn help_exits_zero_with_usage() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "missing usage text:\n{stderr}");
    assert!(stderr.contains("crashcheck"), "usage omits crashcheck");
}

#[test]
fn malformed_fleet_shards_are_usage_errors() {
    assert_usage_error(&["--fleet-shards", "0"], "--fleet-shards");
    assert_usage_error(&["--fleet-shards", "-4"], "--fleet-shards");
    assert_usage_error(&["--fleet-shards", "nan"], "--fleet-shards");
    assert_usage_error(&["--fleet-shards", "many"], "--fleet-shards");
    assert_usage_error(&["--fleet-shards", "1.5"], "--fleet-shards");
    assert_usage_error(&["--fleet-shards"], "--fleet-shards");
}

#[test]
fn malformed_fleet_population_is_a_usage_error() {
    assert_usage_error(&["--fleet-population", "0"], "--fleet-population");
    assert_usage_error(&["--fleet-population", "-1"], "--fleet-population");
    assert_usage_error(&["--fleet-population", "nan"], "--fleet-population");
    assert_usage_error(&["--fleet-population", "everyone"], "--fleet-population");
    assert_usage_error(&["--fleet-population"], "--fleet-population");
}

#[test]
fn malformed_fleet_seed_is_a_usage_error() {
    assert_usage_error(&["--fleet-seed", "banana"], "--fleet-seed");
    assert_usage_error(&["--fleet-seed", "-1"], "--fleet-seed");
    assert_usage_error(&["--fleet-seed"], "--fleet-seed");
}

#[test]
fn malformed_ec_geometries_are_usage_errors() {
    assert_usage_error(&["--ec", "0+2"], "--ec");
    assert_usage_error(&["--ec", "4+0"], "--ec");
    assert_usage_error(&["--ec", "200+100"], "--ec");
    assert_usage_error(&["--ec", "4+2,0+1"], "--ec");
    assert_usage_error(&["--ec", "4-2"], "--ec");
    assert_usage_error(&["--ec", "banana"], "--ec");
    assert_usage_error(&["--ec", "4+two"], "--ec");
    assert_usage_error(&["--ec", ""], "--ec");
    assert_usage_error(&["--ec"], "--ec");
}

#[test]
fn malformed_death_rates_are_usage_errors() {
    assert_usage_error(&["--death-rates", "nan"], "--death-rates");
    assert_usage_error(&["--death-rates", "4,-1"], "--death-rates");
    assert_usage_error(&["--death-rates", "0,banana"], "--death-rates");
    assert_usage_error(&["--death-rates", "inf"], "--death-rates");
    assert_usage_error(&["--death-rates", ""], "--death-rates");
    assert_usage_error(&["--death-rates"], "--death-rates");
}

#[test]
fn malformed_rebuild_rate_is_a_usage_error() {
    assert_usage_error(&["--rebuild-rate", "0"], "--rebuild-rate");
    assert_usage_error(&["--rebuild-rate", "-128"], "--rebuild-rate");
    assert_usage_error(&["--rebuild-rate", "nan"], "--rebuild-rate");
    assert_usage_error(&["--rebuild-rate", "inf"], "--rebuild-rate");
    assert_usage_error(&["--rebuild-rate", "fast"], "--rebuild-rate");
    assert_usage_error(&["--rebuild-rate"], "--rebuild-rate");
    // Its period 1/rate overflows the clock.
    assert_usage_error(&["--rebuild-rate", "1e-300"], "--rebuild-rate");
}

#[test]
fn malformed_durability_seed_is_a_usage_error() {
    assert_usage_error(&["--durability-seed", "banana"], "--durability-seed");
    assert_usage_error(&["--durability-seed", "-1"], "--durability-seed");
    assert_usage_error(&["--durability-seed"], "--durability-seed");
}

#[test]
fn malformed_fleet_retries_is_a_usage_error() {
    assert_usage_error(&["--fleet-retries", "banana"], "--fleet-retries");
    assert_usage_error(&["--fleet-retries", "-1"], "--fleet-retries");
    assert_usage_error(&["--fleet-retries"], "--fleet-retries");
}

#[test]
fn malformed_checkpoint_flags_are_usage_errors() {
    assert_usage_error(&["--checkpoint-out"], "--checkpoint-out");
    assert_usage_error(&["--checkpoint-every", "0"], "--checkpoint-every");
    assert_usage_error(&["--checkpoint-every", "-3"], "--checkpoint-every");
    assert_usage_error(&["--checkpoint-every", "often"], "--checkpoint-every");
    assert_usage_error(&["--checkpoint-every"], "--checkpoint-every");
    assert_usage_error(&["--resume-from"], "--resume-from");
}

#[test]
fn malformed_chaos_knobs_are_usage_errors() {
    assert_usage_error(&["--chaos-panic-rate", "nan"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-panic-rate", "NaN"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-panic-rate", "-0.5"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-panic-rate", "1.5"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-panic-rate", "inf"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-panic-rate", "often"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-panic-rate"], "--chaos-panic-rate");
    assert_usage_error(&["--chaos-fail-point", "0"], "--chaos-fail-point");
    assert_usage_error(&["--chaos-fail-point", "-2"], "--chaos-fail-point");
    assert_usage_error(&["--chaos-fail-point", "later"], "--chaos-fail-point");
    assert_usage_error(&["--chaos-fail-point"], "--chaos-fail-point");
}

#[test]
fn chaos_knobs_stay_hidden_but_checkpoint_flags_are_documented() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["--checkpoint-out", "--checkpoint-every", "--resume-from"] {
        assert!(stderr.contains(needle), "usage omits {needle}:\n{stderr}");
    }
    assert!(
        !stderr.contains("--chaos"),
        "chaos knobs are self-test plumbing and must stay out of the usage \
         string:\n{stderr}"
    );
}

#[test]
fn unusable_resume_checkpoint_is_a_config_error() {
    // A nonexistent checkpoint exits 3 (config) with a typed reason, not
    // 2 (usage: the flag itself was well-formed) and not a panic.
    let out = repro(&[
        "--scale",
        "0.02",
        "--resume-from",
        "/nonexistent/fleet.ckpt",
        "fleet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "bad --resume-from should exit 3; stderr:\n{stderr}"
    );
    assert!(stderr.contains("checkpoint"), "untyped error:\n{stderr}");
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
}

#[test]
fn unwritable_checkpoint_out_is_a_config_error() {
    let out = repro(&[
        "--scale",
        "0.02",
        "--checkpoint-out",
        "/nonexistent-dir/fleet.ckpt",
        "fleet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "unwritable --checkpoint-out should fail fast with exit 3; stderr:\n{stderr}"
    );
    assert!(stderr.contains("checkpoint"), "untyped error:\n{stderr}");
}

#[test]
fn usage_lists_the_durability_target_and_flags() {
    let out = repro(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in ["durability", "--ec", "--death-rates", "--rebuild-rate"] {
        assert!(stderr.contains(needle), "usage omits {needle}:\n{stderr}");
    }
}
