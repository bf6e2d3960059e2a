#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it; arguments pass
# through. Run from the repository root, for example:
#   bash perfbench/run.sh --workload grid1024 --seed 1 --seconds 15 --trace 0
# Everything the build and the runs write goes under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=
export CARGO_TARGET_DIR="$out"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
