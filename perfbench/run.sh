#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it from the
# repository root, passing every argument through, e.g.
#
#   bash perfbench/run.sh --workload imdb-train --seed 1 --seconds 50 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build/ in the repository, and no network access is attempted.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
