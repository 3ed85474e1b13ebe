#!/usr/bin/env bash
# Run the core micro-benchmarks and compare them against a baseline with
# cmd/benchdiff (gate) and benchstat (report, when installed), failing on
# >15% median regressions whose sample ranges fully separate.
#
# Usage:
#   scripts/bench_regress.sh                    # compare against the checked-in baseline
#   scripts/bench_regress.sh baseline.txt       # compare against a given baseline file
#   scripts/bench_regress.sh --interleave DIR   # compare against a base-ref worktree
#   REGEN=1 scripts/bench_regress.sh            # regenerate the checked-in baseline
#
# The benchmark set covers the engine's hot kernels: the parallel
# partition-wise merge, batched prefix-tree/KISS lookup and insert, the
# synchronous index scan, the fused-chain
# plan execution (fused vs materialized, serial and parallel), and the
# SWAR batch kernels (level-synchronous probe descent kernel vs scalar,
# and the range-stream selection-vector path), and the serving tier's
# result path (the cell encoder, and a 10 k-row answer from server encode
# over loopback to client decode, raw and decoded). Benchmarks
# run with -benchmem, so cmd/benchdiff gates allocs/op next to ns/op —
# allocation regressions on the hot kernels fail CI even when wall time
# hides them in runner noise.
#
# --interleave alternates count-1 runs between the base worktree and the
# current tree instead of running one side after the other. Shared and
# burst-credit runners slow down monotonically under sustained load, so a
# sequential old-then-new comparison biases against "new"; interleaving
# gives both sides the same load profile. CI uses this mode for pull
# requests. Baseline files are machine-specific: the checked-in one is a
# non-blocking drift signal for pushes to main, never a PR gate.
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT=${COUNT:-6}
BENCHTIME=${BENCHTIME:-0.3s}
PATTERN='BenchmarkMergePartials|BenchmarkInsertBatch|BenchmarkLookupBatch|BenchmarkSyncScan|BenchmarkKissLookupBatch|BenchmarkKissInsertBatch|BenchmarkFusedChain|BenchmarkBatchedProbe|BenchmarkProbeKernel|BenchmarkRangeStreamKernel|BenchmarkStreamDecoded|BenchmarkStreamRaw|BenchmarkDecodeCell'
PKGS="./internal/core ./internal/prefixtree ./internal/kisstree ./internal/kernel ./internal/wire ./internal/catalog"

run_benches() { # $1 = count
  go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$1" $PKGS
}

compare() { # $1 = old file, $2 = new file
  if command -v benchstat >/dev/null 2>&1; then
    echo; echo "=== benchstat report ==="
    benchstat "$1" "$2" || true
  fi
  echo; echo "=== regression gate (median ns/op + allocs/op, >15% separated fails) ==="
  go run ./cmd/benchdiff -old "$1" -new "$2" -threshold 15 -allocs-threshold 15
}

if [ "${REGEN:-0}" = "1" ]; then
  BASELINE=${1:-internal/bench/testdata/regress-baseline.txt}
  echo "regenerating $BASELINE (count=$COUNT, benchtime=$BENCHTIME)..."
  mkdir -p "$(dirname "$BASELINE")"
  run_benches "$COUNT" | tee "$BASELINE"
  exit 0
fi

if [ "${1:-}" = "--interleave" ]; then
  BASE_DIR=${2:?--interleave needs a base worktree directory}
  OLD=$(mktemp) NEW=$(mktemp)
  trap 'rm -f "$OLD" "$NEW"' EXIT
  for i in $(seq "$COUNT"); do
    echo "interleaved round $i/$COUNT..."
    (cd "$BASE_DIR" && run_benches 1) >> "$OLD" || true
    run_benches 1 >> "$NEW"
  done
  compare "$OLD" "$NEW"
  exit 0
fi

BASELINE=${1:-internal/bench/testdata/regress-baseline.txt}
if [ ! -f "$BASELINE" ]; then
  echo "bench_regress: baseline $BASELINE not found (run REGEN=1 $0 first)" >&2
  exit 2
fi
NEW=$(mktemp)
trap 'rm -f "$NEW"' EXIT
run_benches "$COUNT" | tee "$NEW"
compare "$BASELINE" "$NEW"
