#!/bin/bash
# Paper battery: build the experiment binaries from this checkout, then run
# each experiment and write its output to results/<id>.txt.
#
#   bash results/run_battery.sh                  # all 18 experiments
#   bash results/run_battery.sh table01 fig05    # only the named ones
#
# Exits non-zero when the build or any experiment fails.
cd "$(dirname "$0")/.." || exit 1
export GSWORD_QUERIES=3
export GSWORD_SAMPLES=20000
ALL="table01 fig13 fig14 table02 fig12 fig10 fig11 fig05 fig06 fig01 fig15 fig16 fig17 fig18 fig20_25 table03 fig26_28 ext_branching"
cargo build --release -p gsword-bench --bins || exit 1
BIN="${CARGO_TARGET_DIR:-target}/release"
status=0
for exp in ${@:-$ALL}; do
  echo "=== RUNNING $exp at $(date +%H:%M:%S) ==="
  timeout 3000 "$BIN/$exp" > "results/$exp.txt" 2>&1
  rc=$?
  echo "=== DONE $exp (exit $rc) at $(date +%H:%M:%S) ==="
  [ "$rc" -eq 0 ] || status=1
done
echo BATTERY_COMPLETE
exit "$status"
