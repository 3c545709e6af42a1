#!/usr/bin/env bash
# Builds the benchmark's host and bench binaries from this checkout and runs one
# workload:
#
#   bash perfbench/run.sh --workload lb-keepalive --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, run
# records and trace files stay under .bench_build (or $CARGO_TARGET_DIR).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/bin" "$out/results" "$out/home"
out=$(cd "$out" && pwd)

# Keep the Go toolchain's caches, settings and telemetry inside the
# checkout, and never reach for the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/bin/host" ./host
go -C perfbench build -o "$out/bin/bench" ./bench
exec "$out/bin/bench" -host "$out/bin/host" -out "$out/results" "$@"
