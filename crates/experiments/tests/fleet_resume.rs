//! End-to-end supervisor proofs against the real `repro` binary:
//! a fleet run aborted at a chaos fail point (the simulated kill -9)
//! and resumed from its checkpoint — at a *different* `--jobs` count —
//! produces stdout and `--metrics-out` bytes identical to an
//! uninterrupted run; unusable checkpoints exit with the typed config
//! code; injected panics quarantine shards and exit 8 with the ledger
//! in both the report and the export.

use std::path::PathBuf;
use std::process::{Command, Output};

/// 96 shards = 3 chunks of 32: enough chunks to abort in the middle,
/// small enough to run the binary several times in one test.
const FLEET_ARGS: [&str; 8] = [
    "--scale",
    "0.02",
    "--seed",
    "1994",
    "--fleet-shards",
    "96",
    "--fleet-population",
    "768",
];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns")
}

fn fleet_run(extra: &[&str]) -> Output {
    let mut args: Vec<&str> = FLEET_ARGS.to_vec();
    args.extend_from_slice(extra);
    args.push("fleet");
    repro(&args)
}

/// A per-test scratch directory under the target-local temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mobistore-fleet-resume-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn abort_at_fail_point_then_resume_is_byte_identical() {
    let dir = scratch("abort-resume");
    let golden_json = dir.join("golden.json");
    let golden = fleet_run(&["--metrics-out", golden_json.to_str().unwrap()]);
    assert_eq!(
        golden.status.code(),
        Some(0),
        "uninterrupted run failed: {}",
        String::from_utf8_lossy(&golden.stderr)
    );
    let golden_doc = std::fs::read_to_string(&golden_json).expect("golden metrics");

    // Abort after chunk k (of 3) for several k: each leaves a checkpoint
    // whose watermark is k-1 — the in-flight chunk is the at-most-one
    // chunk a kill -9 costs — and resuming at a different --jobs count
    // reproduces the uninterrupted bytes exactly.
    for fail_after in ["1", "2"] {
        let ckpt = dir.join(format!("fleet-{fail_after}.ckpt"));
        let ckpt = ckpt.to_str().unwrap();
        let aborted = fleet_run(&[
            "--jobs",
            "1",
            "--checkpoint-out",
            ckpt,
            "--chaos-fail-point",
            fail_after,
        ]);
        let stderr = String::from_utf8_lossy(&aborted.stderr);
        assert_eq!(
            aborted.status.code(),
            Some(9),
            "fail point {fail_after} should exit 9; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains("chaos: aborting"),
            "missing abort notice:\n{stderr}"
        );
        assert!(
            std::path::Path::new(ckpt).exists(),
            "abort must leave a checkpoint behind"
        );

        let resumed_json = dir.join(format!("resumed-{fail_after}.json"));
        let resumed = fleet_run(&[
            "--jobs",
            "4",
            "--resume-from",
            ckpt,
            "--metrics-out",
            resumed_json.to_str().unwrap(),
        ]);
        assert_eq!(
            resumed.status.code(),
            Some(0),
            "resume after fail point {fail_after} failed: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            resumed.stdout, golden.stdout,
            "resumed stdout differs from the uninterrupted run (fail point {fail_after})"
        );
        let resumed_doc = std::fs::read_to_string(&resumed_json).expect("resumed metrics");
        assert_eq!(
            resumed_doc, golden_doc,
            "resumed metrics export differs (fail point {fail_after})"
        );
    }

    // Resuming a *complete* checkpoint simulates nothing and still
    // reproduces the bytes.
    let ckpt = dir.join("complete.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let full = fleet_run(&["--checkpoint-out", ckpt]);
    assert_eq!(full.status.code(), Some(0));
    let resumed = fleet_run(&["--resume-from", ckpt]);
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "resume of a complete checkpoint failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(resumed.stdout, golden.stdout);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_is_a_typed_config_error() {
    let dir = scratch("fingerprint");
    let ckpt = dir.join("fleet.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let aborted = fleet_run(&["--checkpoint-out", ckpt, "--chaos-fail-point", "2"]);
    assert_eq!(aborted.status.code(), Some(9));

    // Same checkpoint, different fleet seed: the shard bytes would not
    // line up, so the resume must be refused with the config exit code.
    let mut args: Vec<&str> = FLEET_ARGS.to_vec();
    args.extend_from_slice(&["--fleet-seed", "2001", "--resume-from", ckpt, "fleet"]);
    let out = repro(&args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "fingerprint mismatch should exit 3; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("fingerprint"),
        "mismatch reason not surfaced:\n{stderr}"
    );

    // A garbled checkpoint is refused the same way, and so is one whose
    // histogram bucket counts overflow u64 (no panic, no wrap-around).
    let garbled = dir.join("garbled.ckpt");
    std::fs::write(&garbled, "mobistore-fleet-ckpt/1\nfingerprint zzzz\n").unwrap();
    let doc = std::fs::read_to_string(ckpt).expect("aborted checkpoint");
    let hist = doc
        .lines()
        .find(|l| l.starts_with("m.hist read ") && l.contains(':'))
        .expect("a recorded read histogram");
    let overflow = dir.join("overflow.ckpt");
    let bumped = format!("{hist} 0:{}", u64::MAX);
    std::fs::write(&overflow, doc.replacen(hist, &bumped, 1)).unwrap();
    for bad in [&garbled, &overflow] {
        let out = fleet_run(&["--resume-from", bad.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{} should exit 3; stderr:\n{stderr}",
            bad.display()
        );
        assert!(stderr.contains("checkpoint"), "untyped error:\n{stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resumes the committed checkpoint with its first occurrence of `from`
/// replaced by `to`, and requires the config exit code and a refusal
/// naming `label`.
fn resume_edited_checkpoint_is_refused(name: &str, from: &str, to: &str, label: &str) {
    let dir = scratch(name);
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fleet_resume.ckpt");
    let doc = std::fs::read_to_string(&golden).expect("committed checkpoint");
    assert!(doc.contains(from), "fixture lost {from:?}");
    let hostile = dir.join("edited.ckpt");
    std::fs::write(&hostile, doc.replacen(from, to, 1)).unwrap();
    let out = repro(&[
        "--scale",
        "0.02",
        "--seed",
        "1994",
        "--resume-from",
        hostile.to_str().unwrap(),
        "fleet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(3),
        "an unknown state label should exit 3; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains(&format!("unknown state '{label}'")),
        "refusal does not name the label:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every checkpointed label restores into a closed set (state,
/// component, workload and device names), so the committed checkpoint
/// with one backend state renamed is refused with the config exit code,
/// not accepted under a name no run produces.
#[test]
fn an_unknown_state_label_is_a_typed_config_error() {
    resume_edited_checkpoint_is_refused(
        "unknown-label",
        "\nm.state idle ",
        "\nm.state idlx ",
        "idlx",
    );
}

/// A device class's block carries its own backend's states: the disk
/// block naming `clean`, a card state, is refused.
#[test]
fn a_class_block_naming_another_backends_state_is_refused() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/fleet_resume.ckpt");
    let doc = std::fs::read_to_string(&golden).expect("committed checkpoint");
    let disk = doc.find("\nclass cu140-disk\n").expect("a disk block");
    let next = doc[disk + 1..]
        .find("\nclass ")
        .map_or(doc.len(), |i| disk + 1 + i);
    let standby = doc.find("\nm.state standby ").expect("a standby state");
    assert!(
        disk < standby && standby < next,
        "the first standby state is not the disk block's"
    );
    resume_edited_checkpoint_is_refused(
        "foreign-state",
        "\nm.state standby ",
        "\nm.state clean ",
        "clean",
    );
}

#[test]
fn injected_panics_quarantine_and_exit_8_with_ledger_everywhere() {
    let dir = scratch("quarantine");
    let json = dir.join("chaos.json");
    let out = fleet_run(&[
        "--chaos-panic-rate",
        "0.6",
        "--metrics-out",
        json.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(8),
        "quarantined run should exit 8; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("quarantined shard"),
        "exit-8 notice missing:\n{stderr}"
    );
    // The report carries the ledger: a count line plus one line per shard.
    assert!(
        stdout.contains("quarantined:"),
        "report missing the quarantine section:\n{stdout}"
    );
    assert!(
        stdout.contains("chaos: injected panic"),
        "report missing the panic cause:\n{stdout}"
    );
    assert!(stdout.contains("coverage"), "coverage missing:\n{stdout}");
    // And so does the mobistore-fleet/1 export block.
    let doc = std::fs::read_to_string(&json).expect("chaos metrics");
    assert!(doc.contains("\"schema\":\"mobistore-fleet/1\""));
    assert!(doc.contains("\"quarantined\":{\"count\":"));
    assert!(!doc.contains("\"quarantined\":{\"count\":0,"));
    assert!(doc.contains("\"survivors\":"));
    assert!(doc.contains("chaos: injected panic"));
    let _ = std::fs::remove_dir_all(&dir);
}
