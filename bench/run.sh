#!/usr/bin/env bash
# Builds the benchmark driver and the cmd/experiments worker binary from
# source, then runs the driver. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 12 --trace 0
#
# Binaries, the Go build cache and temporary files stay under
# .bench_build in the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=

(cd bench && go build -o "$out/bin/bench" . && go build -o "$out/bin/experiments" dsmphase/cmd/experiments)
# Not exec: a process inherits its predecessor's child-resource totals
# across exec, and the compiler's resident set would then read as the
# served workload's peak.
"$out/bin/bench" --experiments "$out/bin/experiments" "$@"
