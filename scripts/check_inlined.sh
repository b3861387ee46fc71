#!/usr/bin/env bash
# Fails when a release binary keeps an out-of-line copy of a per-op helper
# that DESIGN.md §12 marks `#[inline]`. A non-generic function is inlined
# across crates only when it carries the attribute (or is a tiny leaf), so
# a helper that loses it, or a new per-op helper without it, shows up here
# as a symbol before it shows up in perfbench's `sim_ops_per_s`.
# `PriceTable::fill` is not listed: it is `#[cold]` and `#[inline(never)]`
# on purpose, the miss path of a memoized price.
#
# Exits 0 when no listed helper has a symbol, 1 naming those that do, and
# 2 on a usage error or a binary that nm cannot read or that has no
# mobistore symbols (stripped).
#
# Usage: scripts/check_inlined.sh <binary>
#   cargo build --release --offline --manifest-path perfbench/Cargo.toml
#   scripts/check_inlined.sh perfbench/target/release/perfbench
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 <binary>" >&2; exit 2; }
[ -f "$1" ] || { echo "check_inlined.sh: no binary at $1" >&2; exit 2; }
command -v nm >/dev/null || { echo "check_inlined.sh: nm is required" >&2; exit 2; }

# Whole demangled names (`nm -C`), as extended regular expressions.
HELPERS=(
    # The time operators and conversions.
    '<mobistore_sim::time::Sim(Time|Duration) as core::ops::arith::[A-Za-z]+(<[^>]*>)?>::[a-z_]+'
    'mobistore_sim::time::Sim(Time|Duration)::(try_)?from_secs_f64'
    # Energy arithmetic and the meter's charges.
    '<mobistore_sim::energy::Watts as core::ops::arith::Mul<mobistore_sim::time::SimDuration>>::mul'
    '<mobistore_sim::energy::Joules as core::ops::arith::Add(Assign)?(<[^>]*>)?>::add(_assign)?'
    'mobistore_sim::energy::EnergyMeter<[^>]*>::charge[a-z_]*'
    'mobistore_sim::units::Bandwidth::transfer_time'
    'mobistore_sim::price::PriceTable::price'
    'mobistore_device::Service::response'
    # The response recorders (`Histogram::record` exactly: `record_n`
    # rebuilds checkpoints and is not per-op).
    'mobistore_sim::hist::LatencyRecorder::record'
    'mobistore_sim::hist::Histogram::record'
    'mobistore_sim::stats::OnlineStats::record'
    # The caches and the simulator's op buffers.
    'mobistore_cache::(dram::BufferCache|sram::SramWriteBuffer)::charge_access'
    'mobistore_cache::dram::BufferCache::insert'
    'mobistore_cache::lru::LruSet::(touch|place|slot|entry|move_to_front)'
    'mobistore_cache::sram::SramWriteBuffer::(contains|fits|incoming)'
    'mobistore_core::simulator::OpBuffers::fill_lbns'
)

names="$(nm -C --defined-only "$1" | cut -d' ' -f3-)" \
    || { echo "check_inlined.sh: nm cannot read $1" >&2; exit 2; }
# A stripped binary lists nothing and would pass vacuously.
grep -q '^mobistore_' <<<"$names" \
    || { echo "check_inlined.sh: $1 has no mobistore symbols" >&2; exit 2; }
pattern="$(printf '%s|' "${HELPERS[@]}")"
found="$(grep -Ex "(${pattern%|})" <<<"$names" | sort -u)" || true
if [ -n "$found" ]; then
    echo "check_inlined.sh: $1 keeps out-of-line copies of per-op helpers:" >&2
    sed "s/^/  /" <<<"$found" >&2
    exit 1
fi
echo "check_inlined.sh: none of ${#HELPERS[@]} per-op helper patterns has an out-of-line copy in $1"
