#!/usr/bin/env bash
# Builds the benchmark and the rfdumpd/rfdumpc daemons it drives from
# the checkout in the current directory, then runs the benchmark:
#
#   bash perfbench/run.sh --workload leaf-dvr --seed 7 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout (Go build cache included).
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/home"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local HOME="$out/home" XDG_CONFIG_HOME="$out/home"
go build -o "$out/bin/" ./cmd/rfdumpd ./cmd/rfdumpc >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin" --work "$out/work" "$@"
