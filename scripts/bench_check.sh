#!/usr/bin/env bash
# Deterministic-counter gate for the sbif-bench artifacts.
#
# The bench binaries write machine-readable BENCH_*.json files whose
# "det" object holds only machine-independent counters (SBIF proven
# equivalences and SAT effort, rewrite peaks, vc2 peak nodes) — wall
# times live outside it. This script runs fast configurations, extracts
# each det subtree with `sbif-trace det` (canonical rendering) and
# byte-diffs it against the checked-in baselines, so any silent change
# to the pipeline's logical work shows up as a bench regression even
# when timings look plausible.
#
# After an *intentional* pipeline change, regenerate and review:
#   SBIF_UPDATE_BASELINES=1 scripts/bench_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BASE=crates/bench/baselines
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cargo build --release --offline --bin sbif-trace
cargo build --release --offline -p sbif-bench --bin table2

# The n = 8 row (the analysis prefilter decides 43 of its 689 window
# checks) pins Table II's run of the verifier's flow past the tiny
# widths.
echo "==> table2 det counters (n = 2 4 8, baselines skipped)"
./target/release/table2 2 4 8 --no-baselines --json "$TMP/BENCH_table2.json" \
    > /dev/null
./target/release/sbif-trace det "$TMP/BENCH_table2.json" > "$TMP/table2.det"

echo "==> sbif_bench det counters (1 ms timing budget)"
# The timing loops are irrelevant here, so the budget is minimal.
SBIF_BENCH_BUDGET_MS=1 SBIF_BENCH_SBIF_JSON="$TMP/BENCH_sbif.json" \
    cargo bench --offline -p sbif-bench --bench sbif_bench > /dev/null
./target/release/sbif-trace det "$TMP/BENCH_sbif.json" > "$TMP/sbif.det"

if [ "${SBIF_UPDATE_BASELINES:-}" = 1 ]; then
    mkdir -p "$BASE"
    cp "$TMP/table2.det" "$BASE/table2.det"
    cp "$TMP/sbif.det" "$BASE/sbif.det"
    echo "bench_check.sh: baselines regenerated under $BASE — review the diff"
    exit 0
fi

for name in table2 sbif; do
    if ! diff -u "$BASE/$name.det" "$TMP/$name.det"; then
        echo "bench_check.sh: deterministic counters drifted for $name" >&2
        echo "(intentional? SBIF_UPDATE_BASELINES=1 scripts/bench_check.sh)" >&2
        exit 1
    fi
done

echo "bench_check.sh: deterministic bench counters match the baselines"
