#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it, from the
# repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The binary, the Go build cache and every scratch file stay under the
# checkout's build directory: $CARGO_TARGET_DIR when set, else
# .bench_build.  Without the repository around this directory the build
# fails, and so does the run.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/work"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build/work" "$@"
