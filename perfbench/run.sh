#!/usr/bin/env bash
# Builds slap, slap-serve, slap-train and the harness from the checkout it is
# run in, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload cli-slap --seed 1 --seconds 10 --trace 0
#
# Everything the run writes (Go build cache, binaries, models, spans) stays
# under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/slap || ! -d cmd/slap-serve || ! -d cmd/slap-train || ! -d internal ]]; then
	echo "perfbench: run from the root of a slap checkout (go.mod, cmd/ and internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

go build -o "$build/bin/" ./cmd/slap ./cmd/slap-serve ./cmd/slap-train
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -build "$build" "$@"
