#!/bin/sh
# CI gate: vet, build, full test suite, then the same suite under the race
# detector. The race pass is what guards the sharded parallel pipeline —
# run it locally before sending changes that touch internal/core,
# internal/pool, or the Compressor/Decompressor concurrency model.
set -eux

cd "$(dirname "$0")/.."

gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$'
go vet ./...
go build ./...
go test ./...
go test -race ./...

# Constrained-parallelism smoke: the chunked shard scheduler and the
# work-sharing pool must degrade gracefully when the runtime has almost no
# cores to hand out — helper tokens stop being granted and chunked runs
# collapse toward serial execution. GOMAXPROCS=2 is the smallest setting
# where helpers can still spawn, so it exercises both sides of that edge.
GOMAXPROCS=2 go test ./internal/pool ./internal/core

# Fault-containment matrix under the race detector, twice: stream
# corruption recovery, the CLI crash-consistency sweep, cancellation and
# panic isolation all unwind work across goroutines, and a second run
# varies the schedules. (The full -race suite above covers these once;
# this repeats exactly the containment surface.) `make chaos` is the
# longer local version with an every-byte crash sweep.
go test -race -count=2 \
  -run 'CrashMatrix|StreamFault|Resync|Cancel|ContextDeadline|Panic|Budget|MaxDecode' \
  . ./cmd/mdzc

# One-iteration benchmark smoke: compiles and executes every benchmark body
# once (including the telemetry-enabled throughput variants) so bit-rotted
# benchmark code fails the gate without paying for real measurement runs.
go test -run '^$' -bench . -benchtime 1x .

# Entropy-stage micro-benchmarks once under the race detector: the
# word-at-a-time bitstream and table-driven Huffman paths use pooled
# scratch state, and one racing iteration of each body is a cheap guard on
# that reuse.
go test -race -run '^$' -bench . -benchtime 1x ./internal/bitstream ./internal/huffman

# Daemon read-your-writes under the race detector, ten times over: the
# ?sync=1 barrier and the committed-frame watermark coordinate HTTP
# handlers with each session's pump goroutine, and a repeated race run is
# what catches a reader racing the ingest queue again.
go test -race -count=10 ./internal/daemon

# Pooled Huffman decode scratch (one section reader per pool worker's
# chunk, its code tables rebuilt in place for every section) under the
# race detector, repeated to vary the worker schedules.
go test -race -count=5 ./internal/huffman ./internal/core

# Daemon smoke: mdzload spawns an in-process mdzd and runs a couple dozen
# concurrent streaming sessions, byte-comparing every container against a
# local library run (-verify 1). `make loadtest` is the longer local soak.
go run ./cmd/mdzload -spawn -sessions 24 -frames 16 -atoms 100 -c 8 -verify 1

# Short fuzz smoke over every parser and differential fuzzer in the tree
# (stream framing, checkpoint parsing, Seek/ReadRange windows against a
# full sequential decode across the writer and reader knobs, the
# read-only v3 decoders — blocks, dual-lane sections and v3 LZ, seeded
# from the committed fixtures and checked against the v2 decode — and the
# entropy/dictionary hot-path equivalence fuzzers). Ten seconds per fuzzer catches regressions without
# slowing the gate meaningfully.
make fuzz-short FUZZTIME=10s

# Performance gate: diff a fresh entropy-stage run against the committed
# report. Throughput deltas print as warnings only — shared-runner noise
# makes hard wall-clock gates flaky — but a compression-ratio regression
# beyond 2% (or a benchmark that fails to run at all) fails the gate:
# ratios are deterministic, so a drop is a real encoder change.
go run ./cmd/mdzbench -entropy -compare BENCH_entropy.json

# Scaling gate, warn-only: diff a fresh Workers x Shards scaling run against
# the committed report. Every delta here is wall-clock on the current host
# (the committed report records its own GOMAXPROCS), so regressions print
# WARNING lines instead of failing the gate; the compression-ratio guard on
# the amortized-ADP knob lives in the deterministic test suite instead
# (TestADPSampleShardsAcceptance).
go run ./cmd/mdzbench -scale -compare BENCH_scale.json

# Read-path gate, warn-only for the same wall-clock reason: diff a fresh
# ranged-access + Workers-grid decode run against the committed report.
# Decoded frames are identical for any worker count; that guard is
# deterministic and lives in the test suite.
go run ./cmd/mdzbench -read -compare BENCH_read.json

# Random access under the race detector, ten times over: a reseed that Seek
# leaves pending unpacks a checkpoint's three axis references concurrently
# on the decoder's pool, and sharded blocks decode on the same pool, so the
# seek, checkpoint and salvage tests are repeated to vary those schedules.
go test -race -count=10 -run 'Seek|ReadRange|Checkpoint|Resync' .
