#!/usr/bin/env bash
# Builds pdedupd and the benchmark program (perfbench) from the checkout's sources
# and runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 12 --trace 0
#
# Every build artifact, cache and state directory stays under
# .bench_build/ in the checkout. Without the repository's sources next
# to perfbench/ the build fails and the script exits non-zero before
# any result is printed.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/pdedupd" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/pdedupd not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=""
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

go build -o "$out/bin/pdedupd" ./cmd/pdedupd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -pdedupd "$out/bin/pdedupd" -workdir "$out" "$@"
