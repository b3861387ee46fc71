//! The `mobistore-fleet-ckpt/1` checkpoint codec.
//!
//! A checkpoint persists the fleet supervisor's [`FoldState`] — survivor
//! rows, per-device-class partial merges, the fleet-wide merge, the
//! quarantine ledger, and the completed-chunk watermark — so an
//! interrupted `repro fleet` run resumes where it stopped and still
//! produces output **byte-identical** to an uninterrupted run.
//!
//! Byte-identity forces two properties on the format:
//!
//! - **Bit-exact floats.** Every `f64` is stored as its IEEE-754 bit
//!   pattern (`to_bits()` in hex), never as decimal text, so a
//!   round-trip cannot perturb a merged mean by half an ulp.
//! - **Lossless histograms.** [`Histogram`] buckets are stored as
//!   `lo:count` pairs and replayed through
//!   [`Histogram::record_n`] — recording a bucket's lower bound maps
//!   back to the same bucket, so the restored histogram is `Eq`-equal
//!   to the original.
//!
//! The format is line-based text: one tagged line per fact, tokens
//! separated by spaces, strings escaped (`\s` space, `\n` newline,
//! `\r` CR, `\\` backslash) so every line splits on whitespace. A
//! trailing `end` line guards against truncated files: a checkpoint
//! torn mid-write never validates, and [`store`] writes through a
//! temporary file plus rename so the published path always holds a
//! complete document.
//!
//! The header carries a **fingerprint** — an FNV-1a hash over every
//! input that shapes shard bytes (shard count, population, fleet seed,
//! retry budget, chaos panic rate, scale, chunk size, and both mixes).
//! [`load`] refuses a checkpoint whose fingerprint differs from the
//! resuming run's: resuming under a different configuration would
//! silently splice incompatible shard results. Inputs that *don't*
//! change shard bytes — `--jobs`, checkpoint cadence and paths, and
//! `--chaos-fail-point` (it only decides when to abort) — are
//! deliberately excluded, so a run aborted at a fail point or resumed
//! on a different core count is accepted.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use mobistore_core::metrics::{backend_state_names, component, Metrics};
use mobistore_flash::store::WearStats;
use mobistore_sim::counters::CounterSet;
use mobistore_sim::energy::Joules;
use mobistore_sim::fleet::{fnv1a, Mix, ShardError};
use mobistore_sim::hist::Histogram;
use mobistore_sim::stats::Summary;
use mobistore_sim::time::SimDuration;

use crate::fleet::{
    device_mix, device_states, workload_mix, FleetOptions, FoldState, ShardRow, CHUNK,
};
use crate::Scale;

/// The checkpoint schema identifier (also the file's first line).
pub const CKPT_SCHEMA: &str = "mobistore-fleet-ckpt/1";

/// The configuration fingerprint stored in (and demanded of) a
/// checkpoint: a hash over every input that shapes shard bytes.
///
/// Includes shards, population, fleet seed, retry budget, chaos panic
/// rate (bit pattern), scale fraction (bit pattern) and seed, the chunk
/// size, and both weighted mixes. Excludes `--jobs`, checkpoint paths
/// and cadence, and `--chaos-fail-point` — none of them change what any
/// shard computes.
pub fn fingerprint(opts: &FleetOptions, scale: Scale) -> u64 {
    let mut desc = format!(
        "{CKPT_SCHEMA};shards={};population={};seed={};retry={};chaos={:016x};\
         scale={:016x};scaleseed={};chunk={CHUNK}",
        opts.shards,
        opts.population,
        opts.seed,
        opts.retry_budget,
        opts.chaos.panic_rate.to_bits(),
        scale.fraction.to_bits(),
        scale.seed,
    );
    for (name, weight) in workload_mix().entries() {
        let _ = write!(desc, ";w:{name}={weight}");
    }
    for (name, weight) in device_mix().entries() {
        let _ = write!(desc, ";d:{name}={weight}");
    }
    fnv1a(desc.as_bytes())
}

/// Escapes a string into a single whitespace-free token.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`].
fn unesc(token: &str) -> Result<String, String> {
    let mut out = String::with_capacity(token.len());
    let mut chars = token.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("bad escape '\\{}'", other.unwrap_or(' '))),
        }
    }
    Ok(out)
}

/// Hex bit pattern of an `f64` (bit-exact round trip).
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Checkpoint line tags of the counter sets, in
/// [`Metrics::counter_sets`] order.
const SET_TAGS: [&str; 6] = ["cache", "sram", "disk", "flashdisk", "card", "array"];

fn encode_metrics(out: &mut String, m: &Metrics) {
    let _ = writeln!(out, "m.name {}", esc(&m.name));
    let _ = writeln!(out, "m.energy {}", bits(m.energy.get()));
    for (name, j) in &m.energy_by_component {
        let _ = writeln!(out, "m.comp {} {}", esc(name), bits(j.get()));
    }
    for (name, j, d) in &m.backend_states {
        let _ = writeln!(
            out,
            "m.state {} {} {}",
            esc(name),
            bits(j.get()),
            d.as_nanos()
        );
    }
    for (key, s, _) in m.channels() {
        let _ = writeln!(
            out,
            "m.sum {key} {} {} {} {} {} {}",
            s.count,
            bits(s.mean),
            bits(s.max),
            bits(s.min),
            bits(s.std),
            bits(s.sum)
        );
    }
    for (key, _, h) in m.channels() {
        let _ = write!(out, "m.hist {key}");
        for (lo, _, count) in h.iter_nonzero() {
            let _ = write!(out, " {lo}:{count}");
        }
        out.push('\n');
    }
    let _ = writeln!(out, "m.dur {}", m.duration.as_nanos());
    for (tag, (_, values)) in SET_TAGS.iter().zip(m.counter_sets()) {
        if let Some(values) = values {
            let _ = write!(out, "m.{tag}");
            for v in values {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
    }
    if let Some(w) = &m.wear {
        let _ = writeln!(
            out,
            "m.wear {} {} {}",
            w.max_erase,
            bits(w.mean_erase),
            w.total
        );
    }
    let _ = writeln!(
        out,
        "m.misc {} {} {} {}",
        m.lost_dirty_blocks, m.rejected_writes, m.rejected_blocks, m.uncorrectable_reads
    );
    out.push_str("m.end\n");
}

/// Serializes the fold state into checkpoint bytes.
fn encode(state: &FoldState, fingerprint: u64, total_chunks: u64, shards_total: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CKPT_SCHEMA}");
    let _ = writeln!(out, "fingerprint {fingerprint:016x}");
    let _ = writeln!(
        out,
        "progress {} {total_chunks} {shards_total} {CHUNK}",
        state.chunks_done
    );
    for r in &state.rows {
        let _ = writeln!(
            out,
            "row {} {} {} {} {} {} {:016x}",
            r.index,
            r.users,
            esc(r.workload),
            esc(r.device),
            r.ops,
            bits(r.energy_j),
            r.digest
        );
    }
    for q in &state.quarantined {
        let _ = writeln!(
            out,
            "quarantine {} {} {}",
            q.shard,
            q.attempts,
            esc(&q.cause)
        );
    }
    for (class, m) in &state.per_class {
        let _ = writeln!(out, "class {}", esc(class));
        encode_metrics(&mut out, m);
    }
    out.push_str("total\n");
    encode_metrics(&mut out, &state.total);
    out.push_str("end\n");
    out
}

/// Atomically writes `state` as a checkpoint: the bytes land in a
/// sibling `.tmp` file first and are renamed over `path`, so the
/// published path never holds a torn document even under kill -9.
pub fn store(
    path: &Path,
    state: &FoldState,
    fingerprint: u64,
    total_chunks: u64,
    shards_total: u64,
) -> std::io::Result<()> {
    let doc = encode(state, fingerprint, total_chunks, shards_total);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, doc)?;
    fs::rename(&tmp, path)
}

/// A line cursor that renders parse failures with their line number.
struct Lines<'a> {
    lines: std::str::Lines<'a>,
    number: usize,
    current: &'a str,
}

impl<'a> Lines<'a> {
    fn new(doc: &'a str) -> Self {
        Lines {
            lines: doc.lines(),
            number: 0,
            current: "",
        }
    }

    fn next(&mut self) -> Result<&'a str, String> {
        match self.lines.next() {
            Some(line) => {
                self.number += 1;
                self.current = line;
                Ok(line)
            }
            None => Err("truncated checkpoint: unexpected end of file".into()),
        }
    }

    fn fail(&self, what: &str) -> String {
        format!("line {}: {what} in '{}'", self.number, self.current)
    }
}

fn parse_u64(cur: &Lines<'_>, token: Option<&str>, what: &str) -> Result<u64, String> {
    token
        .ok_or_else(|| cur.fail(&format!("missing {what}")))?
        .parse::<u64>()
        .map_err(|_| cur.fail(&format!("bad {what}")))
}

fn parse_f64_bits(cur: &Lines<'_>, token: Option<&str>, what: &str) -> Result<f64, String> {
    let token = token.ok_or_else(|| cur.fail(&format!("missing {what}")))?;
    u64::from_str_radix(token, 16)
        .map(f64::from_bits)
        .map_err(|_| cur.fail(&format!("bad {what}")))
}

fn parse_str(cur: &Lines<'_>, token: Option<&str>, what: &str) -> Result<String, String> {
    let token = token.ok_or_else(|| cur.fail(&format!("missing {what}")))?;
    unesc(token).map_err(|e| cur.fail(&format!("bad {what}: {e}")))
}

/// Parses an escaped label that must be one of the closed set `known`
/// (checkpointed labels restore into `&'static str` fields), returning
/// the set's own name.
fn parse_label(
    cur: &Lines<'_>,
    token: Option<&str>,
    what: &str,
    known: impl IntoIterator<Item = &'static str>,
) -> Result<&'static str, String> {
    let label = parse_str(cur, token, what)?;
    known
        .into_iter()
        .find(|name| *name == label)
        .ok_or_else(|| cur.fail(&format!("unknown {what} '{label}'")))
}

/// A mix's labels, in its order.
fn labels(mix: &Mix) -> impl Iterator<Item = &'static str> + '_ {
    mix.entries().iter().map(|&(name, _)| name)
}

fn parse_u32(cur: &Lines<'_>, token: Option<&str>, what: &str) -> Result<u32, String> {
    u32::try_from(parse_u64(cur, token, what)?)
        .map_err(|_| cur.fail(&format!("{what} out of range")))
}

/// Parses a counter-set line: exactly one `u64` per field of `S`.
fn parse_set<'a, S: CounterSet>(
    cur: &Lines<'_>,
    tokens: impl Iterator<Item = &'a str>,
) -> Result<S, String> {
    let values = tokens
        .map(|t| t.parse::<u64>().map_err(|_| cur.fail("bad counter value")))
        .collect::<Result<Vec<u64>, String>>()?;
    S::from_values(&values).ok_or_else(|| {
        cur.fail(&format!(
            "expected {} counter values, found {}",
            S::KEYS.len(),
            values.len()
        ))
    })
}

/// The latency channel named `key`, if there is one.
fn channel<'m>(
    m: &'m mut Metrics,
    key: &str,
) -> Option<(&'static str, &'m mut Summary, &'m mut Histogram)> {
    m.channels_mut().into_iter().find(|(name, ..)| *name == key)
}

/// Decodes one `m.*` block (after its introducing `class`/`total` line),
/// whose `m.state` lines may name only `states`.
fn decode_metrics(cur: &mut Lines<'_>, states: &[&'static str]) -> Result<Metrics, String> {
    let mut m = Metrics::empty("");
    loop {
        let line = cur.next()?;
        let mut t = line.split_whitespace();
        let tag = t.next().unwrap_or("");
        match tag {
            "m.end" => {
                // Every recorded latency lands in both the moments and the
                // histogram of its channel, so their counts agree.
                if let Some((key, ..)) = m
                    .channels()
                    .into_iter()
                    .find(|(_, s, h)| h.count() != s.count)
                {
                    return Err(cur.fail(&format!(
                        "{key} histogram count differs from its summary count"
                    )));
                }
                return Ok(m);
            }
            "m.name" => m.name = parse_str(cur, t.next(), "name")?,
            "m.energy" => m.energy = Joules(parse_f64_bits(cur, t.next(), "energy")?),
            "m.comp" => {
                let name = parse_label(cur, t.next(), "component", component::ALL)?;
                let j = Joules(parse_f64_bits(cur, t.next(), "component energy")?);
                m.energy_by_component.push((name, j));
            }
            "m.state" => {
                let name = parse_label(cur, t.next(), "state", states.iter().copied())?;
                let j = Joules(parse_f64_bits(cur, t.next(), "state energy")?);
                let d = SimDuration::from_nanos(parse_u64(cur, t.next(), "state duration")?);
                m.backend_states.push((name, j, d));
            }
            "m.sum" => {
                let key = t.next().unwrap_or("");
                let s = Summary {
                    count: parse_u64(cur, t.next(), "count")?,
                    mean: parse_f64_bits(cur, t.next(), "mean")?,
                    max: parse_f64_bits(cur, t.next(), "max")?,
                    min: parse_f64_bits(cur, t.next(), "min")?,
                    std: parse_f64_bits(cur, t.next(), "std")?,
                    sum: parse_f64_bits(cur, t.next(), "sum")?,
                };
                let (_, sum, _) =
                    channel(&mut m, key).ok_or_else(|| cur.fail("unknown summary channel"))?;
                *sum = s;
            }
            "m.hist" => {
                let key = t.next().unwrap_or("");
                let mut h = Histogram::default();
                for pair in t {
                    let (lo, count) = pair
                        .split_once(':')
                        .ok_or_else(|| cur.fail("bad histogram pair"))?;
                    let lo = lo.parse::<u64>().map_err(|_| cur.fail("bad bucket lo"))?;
                    let count = count
                        .parse::<u64>()
                        .map_err(|_| cur.fail("bad bucket count"))?;
                    // The running total bounds every bucket, so once it
                    // fits, `record_n` cannot overflow.
                    if h.count().checked_add(count).is_none() {
                        return Err(cur.fail("histogram count overflows u64"));
                    }
                    h.record_n(lo, count);
                }
                let (_, _, hist) =
                    channel(&mut m, key).ok_or_else(|| cur.fail("unknown histogram channel"))?;
                *hist = h;
            }
            "m.dur" => m.duration = SimDuration::from_nanos(parse_u64(cur, t.next(), "duration")?),
            "m.cache" => m.cache = Some(parse_set(cur, t)?),
            "m.sram" => m.sram = Some(parse_set(cur, t)?),
            "m.disk" => m.disk = Some(parse_set(cur, t)?),
            "m.flashdisk" => m.flash_disk = Some(parse_set(cur, t)?),
            "m.card" => m.flash_card = Some(parse_set(cur, t)?),
            "m.array" => m.array = Some(parse_set(cur, t)?),
            "m.wear" => {
                m.wear = Some(WearStats {
                    max_erase: parse_u32(cur, t.next(), "max_erase")?,
                    mean_erase: parse_f64_bits(cur, t.next(), "mean_erase")?,
                    total: parse_u64(cur, t.next(), "total")?,
                });
            }
            "m.misc" => {
                m.lost_dirty_blocks = parse_u64(cur, t.next(), "lost_dirty_blocks")?;
                m.rejected_writes = parse_u64(cur, t.next(), "rejected_writes")?;
                m.rejected_blocks = parse_u64(cur, t.next(), "rejected_blocks")?;
                m.uncorrectable_reads = parse_u64(cur, t.next(), "uncorrectable_reads")?;
            }
            _ => return Err(cur.fail("unknown metrics line")),
        }
    }
}

/// Parses and validates a checkpoint, returning the fold state to resume
/// from.
///
/// # Errors
///
/// Returns a human-readable reason when the file is unreadable,
/// malformed or truncated, carries the wrong schema or chunk size, its
/// fingerprint does not match `expect_fingerprint`, its progress exceeds
/// `total_chunks`, or its rows + quarantine entries do not cover exactly
/// the shards its watermark claims.
pub fn load(
    path: &Path,
    expect_fingerprint: u64,
    total_chunks: u64,
    shards_total: u64,
) -> Result<FoldState, String> {
    let doc =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&doc, expect_fingerprint, total_chunks, shards_total)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn parse(
    doc: &str,
    expect_fingerprint: u64,
    total_chunks: u64,
    shards_total: u64,
) -> Result<FoldState, String> {
    let mut cur = Lines::new(doc);
    let header = cur.next()?;
    if header != CKPT_SCHEMA {
        return Err(format!(
            "unrecognized schema '{header}' (want {CKPT_SCHEMA})"
        ));
    }

    let line = cur.next()?;
    let mut t = line.split_whitespace();
    if t.next() != Some("fingerprint") {
        return Err(cur.fail("expected fingerprint line"));
    }
    let fp = t
        .next()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| cur.fail("bad fingerprint"))?;
    if fp != expect_fingerprint {
        return Err(format!(
            "fingerprint mismatch: checkpoint {fp:016x} vs this run {expect_fingerprint:016x} \
             (the checkpoint was produced under different fleet options, scale, or mixes)"
        ));
    }

    let line = cur.next()?;
    let mut t = line.split_whitespace();
    if t.next() != Some("progress") {
        return Err(cur.fail("expected progress line"));
    }
    let chunks_done = parse_u64(&cur, t.next(), "chunks_done")?;
    let file_total_chunks = parse_u64(&cur, t.next(), "total_chunks")?;
    let file_shards = parse_u64(&cur, t.next(), "shards")?;
    let file_chunk = parse_u64(&cur, t.next(), "chunk size")?;
    if file_total_chunks != total_chunks || file_shards != shards_total {
        return Err(format!(
            "geometry mismatch: checkpoint covers {file_shards} shards in {file_total_chunks} \
             chunks, this run has {shards_total} in {total_chunks}"
        ));
    }
    if file_chunk != CHUNK as u64 {
        return Err(format!("chunk size mismatch: {file_chunk} vs {CHUNK}"));
    }
    if chunks_done > total_chunks {
        return Err(format!(
            "progress {chunks_done}/{total_chunks} exceeds the chunk count"
        ));
    }

    let mut state = FoldState::fresh();
    state.chunks_done = chunks_done;
    let mut total_seen = false;
    let (workloads, devices) = (workload_mix(), device_mix());
    let all_states: Vec<&'static str> = backend_state_names().collect();
    loop {
        let line = cur.next()?;
        let mut t = line.split_whitespace();
        match t.next().unwrap_or("") {
            "row" => {
                let index = parse_u32(&cur, t.next(), "index")?;
                let users = parse_u64(&cur, t.next(), "users")?;
                let workload = parse_label(&cur, t.next(), "workload", labels(&workloads))?;
                let device = parse_label(&cur, t.next(), "device", labels(&devices))?;
                let ops = parse_u64(&cur, t.next(), "ops")?;
                let energy_j = parse_f64_bits(&cur, t.next(), "energy")?;
                let digest = t
                    .next()
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| cur.fail("bad digest"))?;
                state.rows.push(ShardRow {
                    index,
                    users,
                    workload,
                    device,
                    ops,
                    energy_j,
                    digest,
                });
            }
            "quarantine" => {
                let shard = parse_u32(&cur, t.next(), "shard")?;
                let attempts = parse_u32(&cur, t.next(), "attempts")?;
                let cause = parse_str(&cur, t.next(), "cause")?;
                state.quarantined.push(ShardError {
                    shard,
                    attempts,
                    cause,
                });
            }
            "class" => {
                // A class block carries its own backend's states only.
                let label = parse_str(&cur, t.next(), "class label")?;
                let slot = state
                    .per_class
                    .iter_mut()
                    .find(|(n, _)| *n == label)
                    .ok_or_else(|| format!("unknown device class '{label}'"))?;
                slot.1 = decode_metrics(&mut cur, device_states(slot.0))?;
            }
            "total" => {
                // The fleet-wide merge mixes every backend's states.
                state.total = decode_metrics(&mut cur, &all_states)?;
                total_seen = true;
            }
            "end" => break,
            _ => return Err(cur.fail("unknown line")),
        }
    }
    if !total_seen {
        return Err("truncated checkpoint: missing total block".into());
    }

    // The watermark says the first `chunks_done` chunks completed; every
    // shard in them must appear exactly once, as a row or a quarantine
    // entry, and in index order (the fold order).
    let covered = (chunks_done * CHUNK as u64).min(shards_total);
    let mut indices: Vec<u64> = state
        .rows
        .iter()
        .map(|r| u64::from(r.index))
        .chain(state.quarantined.iter().map(|q| u64::from(q.shard)))
        .collect();
    indices.sort_unstable();
    let expected: Vec<u64> = (0..covered).collect();
    if indices != expected {
        return Err(format!(
            "coverage mismatch: watermark {chunks_done} chunks implies shards 0..{covered}, \
             found {} rows + {} quarantined that do not line up",
            state.rows.len(),
            state.quarantined.len()
        ));
    }
    if !state.rows.windows(2).all(|w| w[0].index < w[1].index) {
        return Err("rows out of shard-index order".into());
    }
    if !state
        .quarantined
        .windows(2)
        .all(|w| w[0].shard < w[1].shard)
    {
        return Err("quarantine entries out of shard-index order".into());
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet;
    use mobistore_sim::fleet::ChaosConfig;

    fn state_after_chaos() -> (FoldState, FleetOptions, u64, u64) {
        // Run a small chaotic fleet via the public API, then rebuild the
        // final FoldState it would have checkpointed.
        let opts = FleetOptions {
            shards: 12,
            population: 96,
            chaos: ChaosConfig {
                panic_rate: 0.6,
                fail_point: None,
            },
            ..FleetOptions::default()
        };
        let run = fleet::run(Scale::quick(), &opts).expect("chaos fleet");
        let mut state = FoldState::fresh();
        state.rows = run.rows.clone();
        for (name, m) in &run.per_class {
            let slot = state
                .per_class
                .iter_mut()
                .find(|(n, _)| n == name)
                .expect("class from device mix");
            slot.1 = m.clone();
        }
        state.total = run.total.clone();
        state.quarantined = run.quarantined.clone();
        let total_chunks = (opts.shards as u64).div_ceil(CHUNK as u64);
        state.chunks_done = total_chunks;
        (state, opts, total_chunks, 12)
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let (state, opts, total_chunks, shards) = state_after_chaos();
        let fp = fingerprint(&opts, Scale::quick());
        let doc = encode(&state, fp, total_chunks, shards);
        let back = parse(&doc, fp, total_chunks, shards).expect("round trip");
        assert_eq!(back.rows, state.rows);
        assert_eq!(back.quarantined, state.quarantined);
        assert_eq!(back.chunks_done, state.chunks_done);
        // Metrics lack PartialEq; their Debug rendering covers every
        // field (the fleet digest relies on exactly that), so comparing
        // renderings is a bit-exact comparison.
        assert_eq!(format!("{:?}", back.total), format!("{:?}", state.total));
        assert_eq!(
            format!("{:?}", back.per_class),
            format!("{:?}", state.per_class)
        );
    }

    #[test]
    fn fingerprint_tracks_shard_shaping_inputs_only() {
        let opts = FleetOptions::default();
        let base = fingerprint(&opts, Scale::quick());
        assert_eq!(base, fingerprint(&opts, Scale::quick()), "deterministic");
        let mut other = opts.clone();
        other.seed = 2001;
        assert_ne!(base, fingerprint(&other, Scale::quick()), "seed matters");
        let mut other = opts.clone();
        other.chaos.panic_rate = 0.5;
        assert_ne!(base, fingerprint(&other, Scale::quick()), "rate matters");
        assert_ne!(base, fingerprint(&opts, Scale::full()), "scale matters");
        // Inputs that do not shape shard bytes are excluded.
        let mut other = opts.clone();
        other.chaos.fail_point = Some(3);
        other.checkpoint_every = 7;
        other.checkpoint_out = Some("/tmp/ckpt".into());
        other.resume_from = Some("/tmp/ckpt".into());
        assert_eq!(base, fingerprint(&other, Scale::quick()));
    }

    #[test]
    fn load_rejects_mismatches_and_corruption() {
        let (state, opts, total_chunks, shards) = state_after_chaos();
        let fp = fingerprint(&opts, Scale::quick());
        let doc = encode(&state, fp, total_chunks, shards);

        let err = parse(&doc, fp ^ 1, total_chunks, shards).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");

        let err = parse(&doc, fp, total_chunks + 1, shards).unwrap_err();
        assert!(err.contains("geometry mismatch"), "{err}");

        let truncated = &doc[..doc.len() - 5];
        let err = parse(truncated, fp, total_chunks, shards).unwrap_err();
        assert!(
            err.contains("truncated") || err.contains("unknown"),
            "{err}"
        );

        let garbled = doc.replacen("m.energy", "m.entropy", 1);
        let err = parse(&garbled, fp, total_chunks, shards).unwrap_err();
        assert!(err.contains("unknown metrics line"), "{err}");

        let err = parse("mobistore-fleet-ckpt/0\n", fp, total_chunks, shards).unwrap_err();
        assert!(err.contains("unrecognized schema"), "{err}");

        // A row deleted from a "complete" checkpoint breaks coverage.
        let victim = state.rows[0].index;
        let without: String = doc
            .lines()
            .filter(|l| !l.starts_with(&format!("row {victim} ")))
            .map(|l| format!("{l}\n"))
            .collect();
        let err = parse(&without, fp, total_chunks, shards).unwrap_err();
        assert!(err.contains("coverage mismatch"), "{err}");

        // Lines whose every token parses but whose values do not fit or
        // do not agree with the rest of the block.
        let big = (1u64 << 32).to_string();
        let set = SET_TAGS
            .iter()
            .map(|tag| format!("m.{tag} "))
            .find(|prefix| doc.contains(prefix.as_str()))
            .expect("a counter-set line");
        for (prefix, index, token, want) in [
            // Two buckets whose counts sum past u64::MAX.
            (
                "m.hist read ",
                99,
                format!("0:{} 0:1", u64::MAX),
                "overflows",
            ),
            // One extra observation the read moments never saw.
            (
                "m.hist read ",
                99,
                "0:1".to_owned(),
                "differs from its summary count",
            ),
            ("row ", 1, big.clone(), "index out of range"),
            ("quarantine ", 1, big.clone(), "shard out of range"),
            ("quarantine ", 2, big.clone(), "attempts out of range"),
            ("m.wear ", 1, big.clone(), "max_erase out of range"),
            // One token more than the set has fields.
            (set.as_str(), 99, "0".to_owned(), "counter values"),
            // Labels outside their closed sets.
            ("row ", 3, "amiga".to_owned(), "unknown workload 'amiga'"),
            ("row ", 4, "floppy".to_owned(), "unknown device 'floppy'"),
            (
                "m.comp ",
                1,
                "battery".to_owned(),
                "unknown component 'battery'",
            ),
            ("m.state ", 1, "idlx".to_owned(), "unknown state 'idlx'"),
        ] {
            let hostile = with_token(&doc, prefix, index, &token);
            let err = parse(&hostile, fp, total_chunks, shards).unwrap_err();
            assert!(err.contains(want), "{prefix}{token}: {err}");
        }
    }

    #[test]
    fn a_class_block_takes_only_its_own_backends_states() {
        let (state, opts, total_chunks, shards) = state_after_chaos();
        let fp = fingerprint(&opts, Scale::quick());
        let doc = encode(&state, fp, total_chunks, shards);
        // `doc` with the first state after `block` renamed `name`.
        const STATE: &str = "\nm.state ";
        let rename = |block: &str, name: &str| {
            let start = doc.find(block).unwrap_or_else(|| panic!("no {block:?}"));
            let at = start + doc[start..].find(STATE).expect("a state") + STATE.len();
            let end = at + doc[at..].find(' ').expect("a state energy");
            format!("{}{name}{}", &doc[..at], &doc[end..])
        };
        // Another backend's state is refused in a class block and
        // accepted in the total block.
        for (class, foreign) in [
            ("cu140-disk", "clean"),
            ("sdp5-flashdisk", "spinup"),
            ("intel-card", "standby"),
        ] {
            let hostile = rename(&format!("\nclass {class}\n"), foreign);
            let err = parse(&hostile, fp, total_chunks, shards).unwrap_err();
            let want = format!("unknown state '{foreign}'");
            assert!(err.contains(&want), "{class}: {err}");
            let mixed = rename("\ntotal\n", foreign);
            let total = parse(&mixed, fp, total_chunks, shards);
            assert!(total.is_ok(), "total: {foreign}");
        }
    }

    /// `doc` with token `index` of its first line starting with `prefix`
    /// replaced by `token`, or `token` appended if the line is shorter.
    fn with_token(doc: &str, prefix: &str, index: usize, token: &str) -> String {
        let line = doc
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no line starts with {prefix:?}"));
        let mut tokens: Vec<&str> = line.split(' ').collect();
        match tokens.get_mut(index) {
            Some(t) => *t = token,
            None => tokens.push(token),
        }
        doc.replacen(line, &tokens.join(" "), 1)
    }

    #[test]
    fn metrics_with_every_component_round_trip() {
        fn set<S: CounterSet>(first: u64) -> Option<S> {
            let values: Vec<u64> = (first..first + S::KEYS.len() as u64).collect();
            S::from_values(&values)
        }
        let mut m = Metrics::empty("every component");
        m.cache = set(1);
        m.sram = set(100);
        m.disk = set(200);
        m.flash_disk = set(300);
        m.flash_card = set(400);
        m.array = set(500);
        m.wear = Some(WearStats {
            max_erase: 9,
            mean_erase: 4.25,
            total: 77,
        });
        for (i, (_, sum, hist)) in m.channels_mut().into_iter().enumerate() {
            let n = i as u64 + 1;
            hist.record_n(1_000 * n, n);
            sum.count = n;
            sum.mean = n as f64 / 3.0;
        }
        let mut doc = String::new();
        encode_metrics(&mut doc, &m);
        let back = decode_metrics(&mut Lines::new(&doc), &[]).expect("round trip");
        assert!(back.array.is_some() && back.wear.is_some());
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
    }

    #[test]
    fn store_and_load_round_trip_through_disk() {
        let (state, opts, total_chunks, shards) = state_after_chaos();
        let fp = fingerprint(&opts, Scale::quick());
        let dir = std::env::temp_dir().join("mobistore-ckpt-test");
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fleet.ckpt");
        store(&path, &state, fp, total_chunks, shards).expect("store");
        let back = load(&path, fp, total_chunks, shards).expect("load");
        assert_eq!(back.rows, state.rows);
        assert_eq!(back.quarantined, state.quarantined);
        let missing = dir.join("does-not-exist.ckpt");
        let err = load(&missing, fp, total_chunks, shards).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn escaping_round_trips_hostile_strings() {
        for s in [
            "plain",
            "with space",
            "new\nline",
            "back\\slash",
            "cr\rlf\n mix \\s",
            "",
        ] {
            let e = esc(s);
            assert!(
                !e.contains(' ') && !e.contains('\n') && !e.contains('\r'),
                "{e:?} must be one token"
            );
            assert_eq!(unesc(&e).expect("round trip"), s);
        }
    }
}
