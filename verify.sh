#!/bin/sh
# verify.sh — the full correctness gate: build, vet, the repository's
# own static-analysis passes (cmd/nalixlint), and the test suite under
# the race detector. CI runs exactly this script; run it locally before
# sending a change.
set -eux

go build ./...
go vet ./...
# Formatting: gofmt -l lists every file whose formatting differs.
test -z "$(gofmt -l .)"
go run ./cmd/nalixlint ./...
go test -race -shuffle=on ./...
# The root module's ./... skips the nested perfbench module; vet and
# test it too so a library API change that breaks the benchmark fails
# here rather than only when the benchmark runs.
(cd perfbench && go vet ./... && go test ./...)
# Benchmark smoke: run every benchmark for a single iteration (no
# timing), so bit-rot in the bench harness fails the gate.
go test -run '^$' -bench . -benchtime 1x ./...

# Benchmark regression guard: re-run the benchmarks with committed
# BENCH_*.json baselines at real iteration counts and fail if any
# guarded ns/op regresses past 2x its baseline. benchguard takes the
# min across -count repetitions, so short runs stay noise-tolerant;
# the 2x threshold absorbs the bursty scheduler contention observed on
# shared runners (up to ~1.85x of quiet-machine mins within one run).
# The machine-independent ratios gates in the BENCH files stay tight —
# both sides of a ratio come from the same run.
# BenchmarkAskCached doubles as the cache smoke: its hit/miss baselines
# (BENCH_cache.json) keep the cached path an order of magnitude faster
# than a cold ask. 300 iterations per rep: at 100x the ~35us ask-path
# reps are short enough that one scheduler hiccup lands a ratio gate
# outside its 5% margin on a contended single-CPU runner.
BENCHOUT="$(mktemp)"
go test -run '^$' -bench 'BenchmarkAsk$|BenchmarkAskCached$|BenchmarkEvalStage$|BenchmarkEvalStageScale$|BenchmarkEvalStageSharded$' -benchtime 300x -count 5 . >"$BENCHOUT"
go run ./cmd/benchguard -threshold 2 "$BENCHOUT"
rm -f "$BENCHOUT"
