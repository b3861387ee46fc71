#!/usr/bin/env bash
# Appends one host-time measurement of this tree to the `history` array
# of BENCH_repro.json in the repo root, keeping earlier entries (a file
# without `history` starts one). The entry is {rev, date, rustc, cores,
# scale, seed, seconds, serial_ms, parallel_ms, perfbench}: the wall time
# of `repro --scale S --seed N` at --jobs 1 and on all cores, and
# perfbench's JSON summary (the last line of its stdout) for every
# workload in BENCHMARK.json, run for the benchmark's run_seconds with
# seed N untraced and traced (perfbench.<workload>.untraced / .traced).
# `rev` is HEAD's short hash, with `-dirty` when a tracked file other than
# this script and BENCH_repro.json differs from HEAD. The top level keeps
# the latest repro run: speedup, output_identical (serial and parallel
# stdout are the same bytes) and both --timings-json profiles
# (mobistore-timings/1.1). A failed perfbench run stops the script before
# anything is written. Needs jq.
#
# Usage: scripts/bench_repro.sh [scale] [seed]
set -euo pipefail

cd "$(dirname "$0")/.."
command -v jq >/dev/null || { echo "bench_repro.sh: jq is required" >&2; exit 2; }

SCALE="${1:-0.05}"
SEED="${2:-1994}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
RUSTC_VERSION="$(rustc -V 2>/dev/null || echo unknown)"
CPU_MODEL="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null \
    || sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)"
RUN_SECONDS="$(jq .run_seconds BENCHMARK.json)"
REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
git diff --quiet HEAD -- . ':(exclude)BENCH_repro.json' ':(exclude)scripts/bench_repro.sh' \
    2>/dev/null || REV="$REV-dirty"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release --workspace >/dev/null
REPRO="${CARGO_TARGET_DIR:-target}/release/repro"

run() { # run <jobs> <name> -> prints elapsed ms
    local t0
    t0=$(date +%s%3N)
    "$REPRO" --scale "$SCALE" --seed "$SEED" --jobs "$1" \
        --timings-json "$TMP/$2.json" >"$TMP/$2.out" 2>/dev/null
    echo $(($(date +%s%3N) - t0))
}

echo "benching repro --scale $SCALE --seed $SEED (parallel jobs=$JOBS)..." >&2
SERIAL_MS=$(run 1 serial)
PARALLEL_MS=$(run "$JOBS" parallel)
IDENTICAL=false
cmp -s "$TMP/serial.out" "$TMP/parallel.out" && IDENTICAL=true
SPEEDUP=$(awk "BEGIN { printf \"%.2f\", $SERIAL_MS / $PARALLEL_MS }")

for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    for trace in 0 1; do
        echo "perfbench $workload --trace $trace ($RUN_SECONDS s)..." >&2
        python3 perfbench/run.py --workload "$workload" --seed "$SEED" \
            --seconds "$RUN_SECONDS" --trace "$trace" >"$TMP/perfbench.out" || {
            echo "bench_repro.sh: perfbench $workload --trace $trace failed;" \
                "BENCH_repro.json left as it was" >&2
            exit 1
        }
        tail -n 1 "$TMP/perfbench.out" | jq -c --arg w "$workload" --argjson t "$trace" \
            '{w: $w, k: (if $t == 1 then "traced" else "untraced" end), summary: .}' \
            >>"$TMP/perfbench.jsonl"
    done
done

HISTORY='[]'
if [ -f BENCH_repro.json ]; then
    HISTORY="$(jq -c '.history // []' BENCH_repro.json)"
fi

jq -n \
    --arg bench "repro --scale $SCALE --seed $SEED" \
    --arg rev "$REV" \
    --arg date "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    --arg rustc "$RUSTC_VERSION" \
    --arg cpu "$CPU_MODEL" \
    --argjson cores "$JOBS" \
    --argjson scale "$SCALE" \
    --argjson seed "$SEED" \
    --argjson seconds "$RUN_SECONDS" \
    --argjson serial_ms "$SERIAL_MS" \
    --argjson parallel_ms "$PARALLEL_MS" \
    --argjson speedup "$SPEEDUP" \
    --argjson identical "$IDENTICAL" \
    --slurpfile serial "$TMP/serial.json" \
    --slurpfile parallel "$TMP/parallel.json" \
    --slurpfile runs "$TMP/perfbench.jsonl" \
    --argjson history "$HISTORY" \
    '{benchmark: $bench,
      environment: {rustc: $rustc, cpu: $cpu, cores: $cores, jobs: $cores},
      cores: $cores, serial_ms: $serial_ms,
      parallel_ms: $parallel_ms, speedup: $speedup,
      output_identical: $identical,
      serial_profile: $serial[0], parallel_profile: $parallel[0],
      history: ($history + [{rev: $rev, date: $date, rustc: $rustc,
        cores: $cores, scale: $scale, seed: $seed, seconds: $seconds,
        serial_ms: $serial_ms, parallel_ms: $parallel_ms,
        perfbench: (reduce $runs[] as $r ({}; .[$r.w][$r.k] = $r.summary))}])}' \
    >"$TMP/BENCH_repro.json"
mv "$TMP/BENCH_repro.json" BENCH_repro.json

jq -c '.history[-1] | {rev, date, serial_ms, parallel_ms,
    correct: ([.perfbench[][].correct] | all)}' BENCH_repro.json
