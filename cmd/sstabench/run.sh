#!/usr/bin/env bash
# Builds sstabench from this checkout's sources and runs it with the
# given arguments from the checkout root, e.g.
#
#   bash cmd/sstabench/run.sh --workload sizing-26k --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ at the checkout root, and the Go environment file
# is not read. The build fails, and so does this script, when the rest
# of the repository is not present.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
(
	cd "$root/cmd/sstabench"
	GOENV=off GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= \
		go build -o "$out/bin/sstabench" .
)
cd "$root"
exec "$out/bin/sstabench" "$@"
