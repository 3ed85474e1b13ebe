#!/usr/bin/env bash
# Run the full local lint pass over the whole module: gofmt, go vet, and
# the in-repo qpptvet analyzer suite (internal/lint) — the same commands
# CI runs.
#
# Usage:
#   scripts/lint.sh
#
# Findings print as file:line:col: [analyzer] message. Silence a finding
# only with an auditable reason on the flagged line or the line above:
#
#   //qpptvet:ignore <analyzer> <reason>
#
# A bare ignore without a reason suppresses nothing and is itself
# reported, and so is an ignore that covers no finding. See README
# "Static analysis" for the analyzer catalogue.
set -euo pipefail
cd "$(dirname "$0")/.."

# gofmt: list offenders explicitly, skipping analyzer testdata trees
# (their sources are inputs, not build targets — though they are kept
# formatted too).
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
  echo "gofmt: unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "== go vet =="
go vet ./...

echo "== qpptvet (invariant analyzers, whole program) =="
go run ./cmd/qpptvet ./...

echo "lint: clean"
