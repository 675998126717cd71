#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Everything the Go toolchain writes
# (build cache, temporary files, telemetry) is pointed into benchmark/out,
# so a run leaves nothing outside its checkout; then the harness is built
# and takes over. `go run -C benchmark . <flags>` does the same with the
# user's own Go environment.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/harness" .
exec "$out/bin/harness" "$@"
