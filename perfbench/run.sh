#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash perfbench/run.sh --workload cone_ext --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and trace file stays under .bench_build in
# the checkout. The build fails (and so does this script, printing no
# result) when the repository's sources are not next to perfbench/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
