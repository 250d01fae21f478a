#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md). Everything runs offline:
# the workspace has no third-party dependencies (DESIGN.md §5/§8).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> offline-policy lint (Cargo.lock must stay workspace-only)"
# Every [[package]] in the lock file must be one of our own crates; a
# `source` line would mean a registry/git dependency crept in.
if grep -q '^source = ' Cargo.lock; then
    echo "verify.sh: Cargo.lock contains a non-workspace package:" >&2
    grep -B2 '^source = ' Cargo.lock >&2
    exit 1
fi
if grep '^name = ' Cargo.lock | grep -qv '"sbif'; then
    echo "verify.sh: Cargo.lock lists a package outside the sbif workspace:" >&2
    grep '^name = ' Cargo.lock | grep -v '"sbif' >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q --offline --workspace"
# Every test of the root package and of every member crate runs here,
# once; the gates below only add release-binary checks.
cargo test -q --offline --workspace

echo "==> cargo test -q --offline --locked --manifest-path ledger/Cargo.toml"
# The benchmark (BENCHMARK.json) builds ledger/, a workspace of its own,
# against the member crates through path dependencies; no other step
# compiles it. `--locked` also fails the gate when a crate the ledger
# builds gains or loses a dependency (ledger/Cargo.lock would change).
cargo test -q --offline --locked --manifest-path ledger/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps --lib (rustdoc warnings are errors)"
# A deleted or renamed item must not leave a dangling intra-doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

echo "==> static-analysis gate (sbif-lint --strict)"
# The framework-driven sbif-lint (DESIGN.md §14) in --strict mode over
# every shipped netlist. Generated dividers legitimately carry dead
# cones and structural duplicates, so those two rules are allow-listed;
# anything else (stuck-at, width gaps, …) fails the gate.
./target/release/sbif-lint --strict --allow unreachable --allow duplicate-gate \
    examples/netlists/*.bnet tests/corpus/*.bnet

echo "==> sbif-fuzz --smoke mutation-kill gate (fixed seed, jobs-determinism)"
# The smoke profile pins the seed and mutant population; the binary
# itself fails unless every semantics-changing mutant (>= 200 required)
# is rejected with zero false alarms, zero escapes and zero crashes.
# Running it at two worker counts and byte-comparing the kill matrices
# extends the jobs-determinism discipline to the fuzz subsystem.
FUZZ_TMP="$(mktemp -d)"
trap 'rm -rf "$FUZZ_TMP"' EXIT
./target/release/sbif-fuzz --smoke --jobs 1 --json "$FUZZ_TMP/kill-1.json" \
    --metrics-out "$FUZZ_TMP/fuzz-metrics-1.json"
./target/release/sbif-fuzz --smoke --jobs 4 --json "$FUZZ_TMP/kill-4.json" \
    --metrics-out "$FUZZ_TMP/fuzz-metrics-4.json"
cmp "$FUZZ_TMP/kill-1.json" "$FUZZ_TMP/kill-4.json"
cmp "$FUZZ_TMP/fuzz-metrics-1.json" "$FUZZ_TMP/fuzz-metrics-4.json"
grep '"totals"' "$FUZZ_TMP/kill-1.json" | grep -q '"escaped": 0,'
grep '"totals"' "$FUZZ_TMP/kill-1.json" | grep -q '"false_alarms": 0,'

echo "==> trace gate (NDJSON contract + golden metrics byte-compare)"
# The deterministic metrics report must be byte-identical for any
# --jobs value and match the checked-in golden snapshot; the NDJSON
# event stream must satisfy the closed-set/span-balance contract
# enforced by the independent `sbif-trace check` tool (DESIGN.md §12).
./target/release/sbif-verify --demo 8 --jobs 1 \
    --trace json --trace-out "$FUZZ_TMP/trace.ndjson" \
    --metrics-out "$FUZZ_TMP/metrics-1.json" > /dev/null
./target/release/sbif-verify --demo 8 --jobs 4 \
    --metrics-out "$FUZZ_TMP/metrics-4.json" > /dev/null
./target/release/sbif-trace check "$FUZZ_TMP/trace.ndjson"
cmp "$FUZZ_TMP/metrics-1.json" "$FUZZ_TMP/metrics-4.json"
cmp "$FUZZ_TMP/metrics-1.json" tests/golden/metrics_nonrestoring_n8.json

echo "==> service gate (sbif-serve and fuzz-cache smoke)"
# The verification-service layer (DESIGN.md §15), release-binary
# smoke: a daemon answers a job, a duplicate job hits the shared cache,
# and shutdown is clean — all inside a 10 s timeout so a wedged daemon
# fails the gate instead of hanging it.
SERVE_SOCK="$FUZZ_TMP/serve.sock"
timeout 10 ./target/release/sbif-serve "$SERVE_SOCK" \
    --cache-dir "$FUZZ_TMP/serve-cache" > /dev/null &
SERVE_PID=$!
for _ in $(seq 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
./target/release/sbif-serve submit "$SERVE_SOCK" \
    '{"op": "verify", "id": 1, "demo": 6}' | grep -q '"verdict": "correct"'
./target/release/sbif-serve submit "$SERVE_SOCK" \
    '{"op": "verify", "id": 2, "demo": 6}' | grep -q '"cached": true'
# A key that is no job option fails the job with an error line (submit
# exits 1); it is never dropped in favour of the cached answer.
SUBMIT_RC=0
./target/release/sbif-serve submit "$SERVE_SOCK" \
    '{"op": "verify", "id": 3, "demo": 6, "arch": "srt"}' \
    > "$FUZZ_TMP/serve-bad.out" || SUBMIT_RC=$?
[ "$SUBMIT_RC" -eq 1 ]
grep -q '"ev": "error"' "$FUZZ_TMP/serve-bad.out"
./target/release/sbif-serve stop "$SERVE_SOCK" > /dev/null
wait "$SERVE_PID"
# Warm-over-cold on the fuzz side: a re-run over an unchanged corpus
# must reproduce the kill matrix byte for byte while skipping every
# already-judged seed and mutant (zero cache misses).
./target/release/sbif-fuzz --arch nonrestoring --n 4 --count 3 \
    --cache-dir "$FUZZ_TMP/fuzz-cache" --json "$FUZZ_TMP/kill-cold.json" \
    --metrics-out "$FUZZ_TMP/fm-cold.json" > /dev/null
./target/release/sbif-fuzz --arch nonrestoring --n 4 --count 3 \
    --cache-dir "$FUZZ_TMP/fuzz-cache" --json "$FUZZ_TMP/kill-warm.json" \
    --metrics-out "$FUZZ_TMP/fm-warm.json" > /dev/null
cmp "$FUZZ_TMP/kill-cold.json" "$FUZZ_TMP/kill-warm.json"
grep -q '"cache.misses": 0,' "$FUZZ_TMP/fm-warm.json"
if grep -q '"sbif.windows_solved"' "$FUZZ_TMP/fm-warm.json"; then
    echo "verify.sh: warm fuzz re-run still solved SBIF windows" >&2
    exit 1
fi

echo "==> robustness gate (resource governor + crash-safe daemon)"
# DESIGN.md §16: budgeted runs degrade to typed Inconclusive verdicts
# instead of aborting, byte-identically at any --jobs (tests/governor.rs
# and tests/serve.rs run in the test step above). Budget smoke on the
# known-divergent case: backward rewriting of the SRT divider blows any
# small term budget; governed, the standard flow must exit 0 with an
# inconclusive verdict naming the exhausted stage — inside a hard
# wall-clock ceiling so a hung governor fails the gate instead of
# wedging it.
timeout 60 ./target/release/sbif-verify --demo 6 --arch srt \
    --budget-conflicts 1 --budget-terms 10 --timeout-ms 5000 \
    > "$FUZZ_TMP/srt-governed.out"
# Normally the term budget trips first ("rewrite exhausted
# rewrite-terms"); on a pathologically slow machine the 5 s watchdog
# may beat it — either way the contract is exit 0 + inconclusive.
grep -q "VERDICT: inconclusive (" "$FUZZ_TMP/srt-governed.out"

echo "==> parallel gate (sbif-serve and wide-net jobs differentials)"
# DESIGN.md §7: the level-barrier engine's canonical metrics bytes must
# be identical at any --jobs (tests/parallel_levels.rs sweeps 1/2/4/8 in
# the test step above). The same contract through the daemon: two
# *separate* sbif-serve instances (fresh in-memory caches — a shared
# cache would just replay the first answer) pinned to 1 and 4 jobs must
# return byte-identical result lines (verdict + escaped canonical
# metrics) for the same job.
SOCK1="$FUZZ_TMP/serve-j1.sock"
SOCK4="$FUZZ_TMP/serve-j4.sock"
timeout 20 ./target/release/sbif-serve "$SOCK1" --jobs 1 > /dev/null &
SERVE_J1=$!
timeout 20 ./target/release/sbif-serve "$SOCK4" --jobs 4 > /dev/null &
SERVE_J4=$!
for s in "$SOCK1" "$SOCK4"; do
    for _ in $(seq 100); do [ -S "$s" ] && break; sleep 0.1; done
done
./target/release/sbif-serve submit "$SOCK1" \
    '{"op": "verify", "id": 1, "demo": 8}' \
    > "$FUZZ_TMP/serve-metrics-1.json"
./target/release/sbif-serve submit "$SOCK4" \
    '{"op": "verify", "id": 1, "demo": 8}' \
    > "$FUZZ_TMP/serve-metrics-4.json"
grep -q '"verdict": "correct"' "$FUZZ_TMP/serve-metrics-1.json"
cmp "$FUZZ_TMP/serve-metrics-1.json" "$FUZZ_TMP/serve-metrics-4.json"
./target/release/sbif-serve stop "$SOCK1" > /dev/null
./target/release/sbif-serve stop "$SOCK4" > /dev/null
wait "$SERVE_J1" "$SERVE_J4"
# The n <= 8 sweeps above make few worker-pool hand-offs; the n = 40
# divider makes thousands per pass (one per level with work for a
# helper). Its metrics must match at 1, 2 and 8 jobs, and each run has
# a hard timeout, so a wedged hand-off fails the gate instead of hanging
# it.
for j in 1 2 8; do
    timeout 120 ./target/release/sbif-verify --demo 40 --vc1-only --jobs "$j" \
        --metrics-out "$FUZZ_TMP/wide-$j.json" > /dev/null
done
cmp "$FUZZ_TMP/wide-1.json" "$FUZZ_TMP/wide-2.json"
cmp "$FUZZ_TMP/wide-1.json" "$FUZZ_TMP/wide-8.json"

echo "==> bench determinism gate (scripts/bench_check.sh)"
./scripts/bench_check.sh

echo "verify.sh: all gates passed"
