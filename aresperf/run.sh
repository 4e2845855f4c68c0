#!/usr/bin/env bash
# Builds ares-server and the aresperf benchmark from the sources of the
# checkout it is run from, then runs one benchmark pass. Run it from the
# repository root:
#
#   bash aresperf/run.sh --workload abd-small-read --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the two binaries, the servers' data directories and
# the span traces of traced runs.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off GOWORK=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" TMPDIR="$out/tmp"

# Both builds are incremental: after the first run they only re-link when
# a source changed.
(cd "$here/.." && go build -o "$out/bin/ares-server" ./cmd/ares-server) >&2
(cd "$here" && go build -o "$out/bin/aresperf" .) >&2

exec "$out/bin/aresperf" -server-bin "$out/bin/ares-server" -work-dir "$out" "$@"
