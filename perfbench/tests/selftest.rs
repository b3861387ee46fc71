//! Self-tests of the benchmark: every metric `BENCHMARK.json` names is
//! printed with its unit, and the correctness gate catches a sabotaged
//! configuration and a card that goes read-only.
//!
//! The inputs are the measured ones, full length, so run these in a
//! release build: `cargo test --release`. With zero seconds a run is one
//! warm-up and one repetition.

use std::process::Command;

use mobistore_sim::fault::FaultConfig;
use perfbench::runner::{self, END_TO_END, PER_LAYER};
use perfbench::workloads::{Spec, Workload, DEFAULT_SEED};

/// Runs the benchmark binary for zero seconds on the default seed;
/// returns whether it exited 0, and its stdout.
fn run_binary(workload: Workload, trace: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &DEFAULT_SEED.to_string(),
        ])
        .args(["--seconds", "0", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    (out.status.success(), stdout)
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists a metric the benchmark does not print"
    );
}

#[test]
fn short_runs_print_every_named_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let (ok, stdout) = run_binary(workload, trace);
            let context = format!("{} --trace {trace}:\n{stdout}", workload.name());
            assert!(ok, "{context}");
            let summary = stdout.lines().last().expect("a summary line");
            assert!(summary.starts_with("{\"correct\": true, "), "{context}");
            assert_eq!(
                summary.matches("\"unit\":").count(),
                table.len(),
                "{context}"
            );
            for (name, unit) in table {
                let start = summary
                    .find(&format!("\"{name}\": {{\"value\": "))
                    .unwrap_or_else(|| panic!("{name} missing from the summary; {context}"));
                let entry = summary[start..].split('}').next().expect("an entry");
                assert!(entry.ends_with(&format!("\"unit\": \"{unit}\"")), "{entry}");
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name));
                let fields: Vec<&str> = line
                    .expect("a line per metric")
                    .split_whitespace()
                    .collect();
                assert_eq!(fields.len(), 3, "{fields:?}");
                assert!(fields[1].parse::<f64>().is_ok(), "{fields:?}");
                assert_eq!(fields[2], *unit);
            }
            assert!(
                stdout.lines().any(|l| l.starts_with("failed_frac ")),
                "{context}"
            );
        }
    }
}

#[test]
fn digest_gate_catches_a_sabotaged_utilization() {
    let honest = runner::run(&Spec::new(Workload::CardClean, DEFAULT_SEED), 0.0, false);
    assert!(
        honest.reference.is_some(),
        "references.txt lacks the default seed's digest"
    );
    assert!(honest.correct(), "{:?}", honest.failures);

    let mut spec = Spec::new(Workload::CardClean, DEFAULT_SEED);
    spec.card_utilization = 0.85;
    let sabotaged = runner::run(&spec, 0.0, false);
    assert!(!sabotaged.correct());
    assert_eq!(sabotaged.failed, sabotaged.attempted);
    assert!(
        sabotaged
            .failures
            .iter()
            .any(|f| f.contains("stored reference")),
        "{:?}",
        sabotaged.failures
    );
}

#[test]
fn rejected_writes_invariant_catches_a_read_only_card() {
    let mut spec = Spec::new(Workload::CardClean, DEFAULT_SEED);
    // Every erase fails for good, so every cleaning pass retires its
    // victim instead of freeing it, and the card soon runs out of space.
    spec.card_faults = FaultConfig {
        erase_fail_rate: 1.0,
        permanent_rate: 1.0,
        seed: 7,
        ..FaultConfig::none()
    };
    let report = runner::run(&spec, 0.0, false);
    assert!(!report.correct());
    assert!(report.failed > 0);
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.contains("writes rejected")),
        "{:?}",
        report.failures
    );
}
