#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload shadow-10k --seed 4242 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# run's spools, temporary files and trace files all stay under
# .bench_build/ there.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
