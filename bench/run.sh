#!/usr/bin/env bash
# Builds dynbench from source and runs it with the given arguments. Run it
# from the root of a checkout:
#
#   bash bench/run.sh --workload sample-skew --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -out results.json        (the whole suite)
#   bash bench/run.sh compare OLD.json NEW.json
#
# The binary, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout. The build fails, and nothing is run,
# when the checkout lacks the program's sources.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/bin/dynbench" ./cmd/dynbench)
exec "$build/bin/dynbench" "$@"
