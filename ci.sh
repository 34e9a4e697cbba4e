#!/bin/sh
# CI gate: formatting + vet + the bdslint invariant suite + full test suite
# (tier-1) + race detector over the packages the parallel substitution
# engine touches (including the batch scheduler driven over a 100k-gate
# circuit regenerated from its committed recipe) + a one-iteration smoke of
# the equivalence-check benchmark + a fuzz smoke over every
# fuzz target (BLIF parser, cube algebra, overlay reads, batch cone
# disjointness) + a bench-regression check of the substitution engine
# against the committed baseline — timing drift warns, scaling-floor
# violations fail. Run from the repo root.
set -eux

# Built tools and their reports go to a private temporary directory that is
# removed on exit, so concurrent runs cannot clobber each other's files.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Formatting gate: gofmt must have nothing to rewrite.
test -z "$(gofmt -l .)"

go vet ./...
go build ./...

# Invariant suite (see internal/analysis and DESIGN.md "Invariants: static
# vs runtime"): maporder, noclock, roview, spawn, idmap, hotalloc over the
# whole module. The same binary runs three ways:
#   1. standalone over ./... with the ignore-accounting report and the
#      committed per-rule budget (fails on stale ignores and budget growth),
#   2. as a `go vet` tool over one guarded package, exercising the
#      unitchecker protocol path the analyzers also support,
#   3. the report JSON is printed as a build artifact so a CI log shows the
#      suppression counts at a glance.
go build -o "$tmp/bdslint" ./cmd/bdslint
"$tmp/bdslint" -report "$tmp/bdslint_ignores.json" -budget testdata/lint/ignore_budget.json ./...
go vet -vettool="$tmp/bdslint" ./internal/core
echo "bdslint ignore report:" && cat "$tmp/bdslint_ignores.json"

go test ./...
# The end-to-end benchmark (perfbench/, its own module) carries the
# checker and metric-name tests BENCHMARK.json relies on; `./...` from the
# root does not descend into another module, so run them explicitly.
(cd perfbench && go test .)
# The engine's schedules depend on the worker count, which defaults to
# GOMAXPROCS: run the core tests at 1, 2 and 4 so the gate does not depend
# on the host's core count.
go test -cpu 1,2,4 ./internal/core
go test -race ./internal/core ./internal/atpg ./internal/netlist
# Equivalence-check benchmark smoke: one iteration of each case (exhaustive
# 16-input rand DAG; randomized + SAT on a 60-input cone forest) so the
# benchmark keeps compiling and running. Not gated: benchreg does not track it.
go test -run '^$' -bench '^BenchmarkVerifyCheck$' -benchtime 1x -benchmem ./internal/verify

# Batch-scheduler race + identity check at scale: regenerate the 100k-gate
# cone-forest corpus circuit in-process from its committed recipe
# (bench.Generate("cone", 100000, 0, seed 1) — nothing large is checked in)
# and assert byte-identical committed BLIF across workers {1,4,8} × batch
# on/off under the race detector. Phase B speculation is the engine's only
# concurrent region, and small unit circuits don't fill the claim windows
# the way 100k gates do.
BDS_SCALE_RACE=1 BDS_SCALE_GATES=100000 \
  go test -race -run 'TestSubstituteBatchScaleRace$' -timeout 60m ./internal/core
# Fuzz smoke. The first line replays the committed seed corpora for every
# fuzz target (no -fuzz flag: deterministic, fails on any regressed seed).
# Then each target explores for a few seconds — Go accepts only one -fuzz
# pattern per invocation, so the loop pairs each target with its package.
go test -run Fuzz ./internal/blif ./internal/cube ./internal/network ./internal/core
for target in \
  'FuzzParse ./internal/blif' \
  'FuzzParseNoSemanticsCrash ./internal/blif' \
  'FuzzCoverOps ./internal/cube' \
  'FuzzOverlayReadEquivalence ./internal/network' \
  'FuzzBatchDisjoint ./internal/core'
do
  set -- $target
  go test -run '^$' -fuzz "^$1\$" -fuzztime=5s "$2"
done

# Bench regression. Raw timing drift warns only — single-shot CI timings
# are noisy — but the committed scaling floors (w1/wN ratio per benchmark
# family, see testdata/bench/BENCH_substitute.json "scaling_floors") are a
# hard gate: both sides of a ratio come from the same run on the same host,
# so noise cancels, and a floor miss means multi-worker scheduling really
# regressed (the pre-batch wave scheduler scores ~0.5 against the 0.8
# floors). BenchmarkSubstituteScale regenerates its 10k/100k cone-forest
# circuits in-process from the committed recipe; the scale tiers dominate
# this step's wall time.
# -benchmem adds allocs/op and B/op, which benchreg compares with tighter
# thresholds than ns/op: allocation counts are near-deterministic here, so
# drift means the engine's allocation behavior actually changed.
go build -o "$tmp/benchreg" ./cmd/benchreg
go test -run '^$' -bench 'BenchmarkSubstituteParallel$|BenchmarkNodeLookup$|BenchmarkPlannerBookkeeping$|BenchmarkSubstituteScale$' -benchtime 1x -benchmem -timeout 60m . \
  | "$tmp/benchreg" -emit "$tmp/BENCH_substitute.json"
"$tmp/benchreg" -compare testdata/bench/BENCH_substitute.json "$tmp/BENCH_substitute.json"
