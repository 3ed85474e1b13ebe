#!/usr/bin/env bash
# Fail when a package under internal/ is reachable from none of the things
# the repo ships and measures — the qppt package, cmd/qpptsql and the
# benchmark module — so code only tests can reach cannot accumulate again.
# The exceptions: the analyzers (internal/lint/..., run by cmd/qpptvet) and
# the arenatest test helper.
set -euo pipefail
cd "$(dirname "$0")/.."
reached=$({ go list -deps . ./cmd/qpptsql; go -C benchmark list -deps .; } | grep '^qppt/internal/' | sort -u)
all=$(go list ./internal/... | grep -vE '^qppt/internal/(lint(/.*)?|arena/arenatest)$' | sort)
orphans=$(comm -23 <(echo "$all") <(echo "$reached"))
if [ -n "$orphans" ]; then
  echo "check_reachable: imported by none of ., ./cmd/qpptsql and benchmark/:" >&2
  echo "$orphans" >&2
  exit 1
fi
