#!/usr/bin/env bash
# Builds the service benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the root
# of a checkout: the build cache, the binary, temporary data directories
# and trace files all stay under .bench_build there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Everything the Go toolchain writes (build cache, temporary files, module
# cache, telemetry counters under the config directory) stays in $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
