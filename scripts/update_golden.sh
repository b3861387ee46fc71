#!/usr/bin/env sh
# Regenerates the golden snapshot fixtures under tests/golden/ and the
# full-scale record results_full.txt.
#
# Run after an *intentional* output change, then review the diff:
#   scripts/update_golden.sh && git diff tests/golden results_full.txt
set -eu

cd "$(dirname "$0")/.."

cargo build --release --workspace

for target in table1 table2 table3 table4 figure1 figure2 figure3 figure4 figure5 crashcheck integrity fleet profile durability; do
    echo "# rendering $target" >&2
    ./target/release/repro --scale 0.02 --seed 1994 "$target" \
        2>/dev/null > "tests/golden/$target.txt"
done

# The chaos fleet fixture: injected panics quarantine shards, so the
# run *succeeds with reduced coverage* and exits 8 by design — anything
# else (a real failure, or chaos silently not firing) aborts the update.
echo "# rendering fleet (chaos)" >&2
rc=0
./target/release/repro --scale 0.02 --seed 1994 --chaos-panic-rate 0.5 fleet \
    2>/dev/null > "tests/golden/fleet_chaos.txt" || rc=$?
if [ "$rc" -ne 8 ]; then
    echo "error: chaos fleet render expected exit 8 (quarantined), got $rc" >&2
    exit 1
fi

# The checkpoint fixture: the quiet fleet run aborted at its chaos fail
# point after chunk 1 of 2, which exits 9 by design. tests/golden.rs
# resumes it and expects fleet.txt, pinning the checkpoint format.
echo "# writing the fleet checkpoint" >&2
rc=0
./target/release/repro --scale 0.02 --seed 1994 \
    --checkpoint-out tests/golden/fleet_resume.ckpt --chaos-fail-point 2 fleet \
    2>/dev/null > /dev/null || rc=$?
if [ "$rc" -ne 9 ]; then
    echo "error: fleet checkpoint run expected exit 9 (fail point), got $rc" >&2
    exit 1
fi

# The full-scale record: the whole stdout of every target at scale 1,
# the numbers EXPERIMENTS.md quotes. CI compares it at two job counts.
echo "# rendering the full-scale record" >&2
./target/release/repro --seed 1994 2>/dev/null > results_full.txt

echo "# fixtures updated; review with: git diff tests/golden results_full.txt" >&2
