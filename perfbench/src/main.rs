//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line with its unit,
//! then a JSON summary as the last line of stdout. Exits 0 when every
//! cell or shard passed the correctness gate, 1 when one failed, 2 on a
//! usage error.
//!
//! `--reference` runs one untraced repetition and prints the
//! `references.txt` line for it instead.

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::gate::reference_line;
use perfbench::runner::{self, Report};
use perfbench::workloads::{Spec, Workload, DEFAULT_SEED};

const USAGE: &str = "usage: perfbench --workload <card-clean|cache-sweep|fleet> [--seed N] \
                     [--seconds S] [--trace 0|1] [--reference]";

struct Args {
    spec: Spec,
    seconds: f64,
    traced: bool,
    reference: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut reference = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(bad("expected 0 to 600"));
                }
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        spec: Spec::new(workload, seed),
        seconds,
        traced,
        reference,
    })
}

/// The last line of stdout: `correct`, `attempted`, `failed` and every
/// metric with its value and unit.
fn summary_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct(),
        report.attempted,
        report.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = &args.spec;
    let name = spec.workload.name();

    if args.reference {
        let (digest, failures) = runner::digest_once(spec);
        for f in &failures {
            eprintln!("perfbench: FAILED {f}");
        }
        if !failures.is_empty() {
            return ExitCode::from(1);
        }
        println!("{}", reference_line(name, spec.seed, digest));
        return ExitCode::SUCCESS;
    }

    let report = runner::run(spec, args.seconds, args.traced);
    let kind = if args.traced { "traced" } else { "untraced" };
    println!(
        "# {name} {kind} seed {}: digest {:016x}, reference {}",
        spec.seed,
        report.digest,
        match report.reference {
            Some(r) if r == report.digest => "matches".to_owned(),
            Some(r) => format!("{r:016x} DIFFERS"),
            None => "none stored for this seed".to_owned(),
        }
    );
    for m in &report.metrics {
        println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<36} {:>16.6} fraction ({} of {} cells or shards)",
        "failed_frac",
        report.failed_frac(),
        report.failed,
        report.attempted
    );
    for f in &report.failures {
        println!("# FAILED {f}");
    }
    println!("{}", summary_json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
