#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays in .bench_build at the root of the
# checkout (git-ignored): the binary, the Go build cache, temporary files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
(
	cd "$here"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		go build -o "$out/vgprs-bench" . >&2
)
exec "$out/vgprs-bench" "$@"
