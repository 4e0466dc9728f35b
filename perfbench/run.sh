#!/usr/bin/env bash
# Builds the solving service and the load generator from the checkout that
# holds this script, then runs the generator with the given arguments:
#
#   bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 15 --trace 0
#
# Every build and run artefact (Go build cache, binaries, trained model,
# span files) stays under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

cd "$root"
go build -o "$out/bin/neuroselect-serve" ./cmd/neuroselect-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -out "$out" -serve "$out/bin/neuroselect-serve" "$@"
