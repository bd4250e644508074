#!/usr/bin/env bash
# Extended tier-1 gate: everything CI needs to trust a change.
#
#   build        — the module compiles;
#   vet          — stdlib static checks;
#   afalint      — the determinism contract (DESIGN.md §5): no wall
#                  clock, no global rand, no map-order dependence, no
#                  concurrency or float equality in the sim core, no
#                  sim-core import of the orchestration tier (§7);
#   afalint -perf — the performance contract (§8): no new hot-path
#                  allocation, interface dispatch, defer, growth
#                  append, or map traffic beyond the recorded debts
#                  in lint_perf.baseline;
#   afalint -state — the state-integrity contract (§10): pooled types,
#                  Reset() methods, and Snapshot()/Clone() methods
#                  must cover every mutable field, no package-level
#                  vars in sim-core, no use-after-release of pooled
#                  pointers, beyond the debts in lint_state.baseline;
#   race+shuffle — the full suite once, under the race detector with
#                  test order shuffled: the sim core is single-threaded
#                  by contract and the runner tier merges in submission
#                  order, so the detector must be silent, and no test
#                  may depend on state another test left behind. One
#                  pass covers what used to be three (-race, -shuffle,
#                  and a fault/kernel/raid re-run): the fault, timeout,
#                  write-path, and rebuild tests all live in the suite
#                  this runs, and -shuffle=on implies -count=1 so
#                  nothing is served from the test cache.
#   parallel     — the serial-vs-parallel determinism cross-check re-run
#                  under -race: the report of every registry experiment
#                  (figures, tables, headline, every ablation) must be
#                  byte-identical at -parallel 1 and 8.
#   all smoke    — `afareport -all` at the tests' small scale (12 SSDs,
#                  60 ms): every registry entry runs end to end through
#                  the real CLI path, flag parsing and input checks
#                  included. The load ablation is the longest (~5 s).
#   perfbench    — the benchmark module's own tests (tiny scale, ~3 s).
#                  perfbench/ is a separate Go module, so `go test ./...`
#                  above does not reach it, and it is the one consumer of
#                  the public core/fio/raid API that no other step builds.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go run ./cmd/afalint ./...
go run ./cmd/afalint -perf -baseline lint_perf.baseline ./...
go run ./cmd/afalint -state -baseline lint_state.baseline ./...
go test -race -shuffle=on ./...
go test -race -count=1 -run 'TestParallelDeterminism|TestMap' ./internal/core/ ./internal/runner/
go run ./cmd/afareport -all -ssds 12 -runtime 60ms -seed 7 -solo-runs 2 >/dev/null
(cd perfbench && go test ./...)
