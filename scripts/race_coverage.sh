#!/bin/sh
# race_coverage.sh — the explicit `go test -race` coverage contract.
#
# The race CI lane used to run `go list ./... | grep -v
# internal/harness`, which silently classified every new package as
# covered-or-not depending on its name. This script replaces the grep
# with an explicit ledger: every package in the module must appear in
# exactly one of the two lists below, and the script fails the build
# the moment a package is created (or renamed) without deciding its
# race story.
#
# Usage:
#   scripts/race_coverage.sh check   # assert ledger == go list ./...
#   scripts/race_coverage.sh list    # print covered packages, one per line
set -eu

# Covered: every package whose tests run under the race detector.
COVERED='
repro
repro/bench
repro/cluster
repro/cmd/internal/worker
repro/cmd/lpsgd-experiments
repro/cmd/lpsgd-quant
repro/cmd/lpsgd-sim
repro/cmd/lpsgd-top
repro/cmd/lpsgd-trace
repro/cmd/lpsgd-train
repro/cmd/lpsgd-vet
repro/cmd/lpsgd-worker
repro/comm
repro/data
repro/elastic
repro/examples/clustertrain
repro/examples/costplanner
repro/examples/imageclassify
repro/examples/publicapi
repro/examples/quickstart
repro/examples/speechlstm
repro/health
repro/internal/lint
repro/internal/lint/analysis
repro/internal/lint/analysistest
repro/internal/lint/driver
repro/internal/report
repro/internal/workload
repro/lpsgd
repro/nn
repro/obs
repro/parallel
repro/quant
repro/rng
repro/sim
repro/tensor
'

# Excluded: each entry needs a reason.
#   repro/internal/harness — trains full accuracy studies end to end
#   and blows any reasonable -race time budget; its concurrency lives
#   in the fabrics, reducers, rendezvous and trainer, all covered
#   above.
EXCLUDED='
repro/internal/harness
'

mode="${1:-check}"

ledger=$(printf '%s\n%s\n' "$COVERED" "$EXCLUDED" | grep -v '^$' | sort)
actual=$(go list ./... | sort)

if [ "$ledger" != "$actual" ]; then
    echo "race_coverage.sh: package ledger is out of date." >&2
    echo "Every module package must be listed as covered or excluded (with a reason):" >&2
    diff_out=$(printf '%s\n' "$ledger" >/tmp/race_ledger.$$; printf '%s\n' "$actual" >/tmp/race_actual.$$; diff /tmp/race_ledger.$$ /tmp/race_actual.$$ || true; rm -f /tmp/race_ledger.$$ /tmp/race_actual.$$)
    echo "$diff_out" >&2
    exit 1
fi

case "$mode" in
check)
    echo "race coverage ledger matches go list ./..."
    ;;
list)
    printf '%s\n' "$COVERED" | grep -v '^$'
    ;;
*)
    echo "usage: $0 [check|list]" >&2
    exit 2
    ;;
esac
