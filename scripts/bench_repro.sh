#!/usr/bin/env bash
# Times the full repro pipeline serial (--jobs 1) vs parallel (all cores)
# and writes the results to BENCH_repro.json in the repo root. The
# per-target wall-clock breakdown comes from repro's own --timings-json
# self-profiling (mobistore-timings/1.1: per-target ops and ops/sec),
# the throughput block comes from `repro throughput --throughput-json`
# (mobistore-throughput/1: warmup + median-of-reps simulated ops/sec per
# cell), and the environment block records the toolchain and host so the
# numbers are comparable across machines. With jq, the `previous` block
# keeps the replaced file's parallel_ms and throughput cells, so the
# committed file shows a change next to the run before it.
#
# Usage: scripts/bench_repro.sh [scale] [seed] [reps]
set -euo pipefail

cd "$(dirname "$0")/.."

SCALE="${1:-0.05}"
SEED="${2:-1994}"
REPS="${3:-3}"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
RUSTC_VERSION="$(rustc -V 2>/dev/null || echo unknown)"
CPU_MODEL="$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null \
    || sysctl -n machdep.cpu.brand_string 2>/dev/null || echo unknown)"

cargo build --release --workspace >/dev/null
REPRO=target/release/repro

now_ms() { date +%s%3N; }

run() { # run <jobs> <outfile> <timingsfile> -> prints elapsed ms
    local jobs="$1" out="$2" timings="$3"
    local t0 t1
    t0=$(now_ms)
    "$REPRO" --scale "$SCALE" --seed "$SEED" --jobs "$jobs" \
        --timings-json "$timings" >"$out" 2>/dev/null
    t1=$(now_ms)
    echo $((t1 - t0))
}

echo "benching repro --scale $SCALE --seed $SEED (parallel jobs=$JOBS)..." >&2

SERIAL_OUT="$(mktemp)"
PARALLEL_OUT="$(mktemp)"
SERIAL_TIMINGS="$(mktemp)"
PARALLEL_TIMINGS="$(mktemp)"
THROUGHPUT_JSON="$(mktemp)"
SERIAL_MS=$(run 1 "$SERIAL_OUT" "$SERIAL_TIMINGS")
PARALLEL_MS=$(run "$JOBS" "$PARALLEL_OUT" "$PARALLEL_TIMINGS")

echo "running throughput harness ($REPS reps)..." >&2
"$REPRO" --scale "$SCALE" --seed "$SEED" --jobs "$JOBS" \
    --throughput-reps "$REPS" --throughput-json "$THROUGHPUT_JSON" \
    throughput >/dev/null 2>&1

if cmp -s "$SERIAL_OUT" "$PARALLEL_OUT"; then
    IDENTICAL=true
else
    IDENTICAL=false
fi
rm -f "$SERIAL_OUT" "$PARALLEL_OUT"

SPEEDUP=$(awk "BEGIN { printf \"%.2f\", $SERIAL_MS / $PARALLEL_MS }")

if command -v jq >/dev/null; then
    PREVIOUS=null
    if [ -f BENCH_repro.json ]; then
        PREVIOUS="$(jq -c '{parallel_ms, throughput: {cells: .throughput.cells}}' \
            BENCH_repro.json 2>/dev/null || echo null)"
    fi
    # Embed repro's own per-target profiles (mobistore-timings/1.1), the
    # throughput harness block (mobistore-throughput/1), and the host
    # environment.
    jq -n \
        --arg bench "repro --scale $SCALE --seed $SEED" \
        --arg rustc "$RUSTC_VERSION" \
        --arg cpu "$CPU_MODEL" \
        --argjson cores "$JOBS" \
        --argjson serial_ms "$SERIAL_MS" \
        --argjson parallel_ms "$PARALLEL_MS" \
        --argjson speedup "$SPEEDUP" \
        --argjson identical "$IDENTICAL" \
        --slurpfile serial "$SERIAL_TIMINGS" \
        --slurpfile parallel "$PARALLEL_TIMINGS" \
        --slurpfile throughput "$THROUGHPUT_JSON" \
        --argjson previous "$PREVIOUS" \
        '{benchmark: $bench,
          environment: {rustc: $rustc, cpu: $cpu, cores: $cores, jobs: $cores},
          cores: $cores, serial_ms: $serial_ms,
          parallel_ms: $parallel_ms, speedup: $speedup,
          output_identical: $identical,
          serial_profile: $serial[0], parallel_profile: $parallel[0],
          throughput: $throughput[0], previous: $previous}' \
        > BENCH_repro.json
else
    cat > BENCH_repro.json <<EOF
{
  "benchmark": "repro --scale $SCALE --seed $SEED",
  "environment": {
    "rustc": "$RUSTC_VERSION",
    "cpu": "$CPU_MODEL",
    "cores": $JOBS,
    "jobs": $JOBS
  },
  "cores": $JOBS,
  "serial_ms": $SERIAL_MS,
  "parallel_ms": $PARALLEL_MS,
  "speedup": $SPEEDUP,
  "output_identical": $IDENTICAL,
  "throughput": $(cat "$THROUGHPUT_JSON")
}
EOF
fi
rm -f "$SERIAL_TIMINGS" "$PARALLEL_TIMINGS" "$THROUGHPUT_JSON"

cat BENCH_repro.json
