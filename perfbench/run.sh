#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload mem-baseline --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under the build directory,
# $CARGO_TARGET_DIR if set (relative paths are taken from the checkout root),
# else .bench_build: the Go build cache, the binary and temporary run caches.
# HOME and XDG_CONFIG_HOME point there too for the build, so the toolchain's
# own files (telemetry counters) stay inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

if ! (cd "$here" && HOME=$out/home XDG_CONFIG_HOME=$out/home/.config \
	go build -buildvcs=false -o "$out/perfbench" .) >&2; then
	echo "run.sh: building the benchmark failed" >&2
	exit 2
fi

commit=
if [ -d "$root/.git" ]; then
	commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi

exec "$out/perfbench" -root "$root" -commit "$commit" -scratch "$out" "$@"
