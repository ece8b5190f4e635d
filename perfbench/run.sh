#!/usr/bin/env bash
# Builds the perfbench program from source and runs it, passing every
# argument through. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload large-objects --seed 42 --seconds 25 --trace 0
#
# Everything the build and the run write stays inside the repository:
# the Go build cache, the Go configuration directory, the binary and
# the run records go under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out/perfbench-records" "$@"
