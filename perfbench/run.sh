#!/usr/bin/env bash
# Builds the OO1 wall-clock benchmark from source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache, WAL directories and span files go to
# $CARGO_TARGET_DIR (default .bench_build) under the current directory.
# Build messages go to standard error, so the last line of standard
# output is the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep everything the go command writes (build cache, temporary files,
# module cache, telemetry under the user config directory) in $out, and
# never fetch anything: the module needs only this repository.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
