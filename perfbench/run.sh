#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload default-qd1 --seed 2018 --seconds 10 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build/ in the checkout, and the local Go toolchain is used as is.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (needs go.mod, internal/ and perfbench/)" >&2
  exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
