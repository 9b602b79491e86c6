GO ?= go

.PHONY: all build test race vet fmt ci bench bench-entropy bench-compare bench-scale bench-read bench-lossless fuzz-short chaos loadtest

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

ci:
	sh scripts/ci.sh

# Hot-path throughput benchmarks for the sharded parallel pipeline.
bench:
	$(GO) test -run xxx -bench 'CompressBatch|DecompressBatch' -benchmem .

# Entropy-stage benchmark: per-stage MB/s, ns/value and compression ratio
# per method. bench-entropy refreshes the committed report; bench-compare
# diffs a fresh run against it.
bench-entropy:
	$(GO) run ./cmd/mdzbench -entropy -json BENCH_entropy.json

bench-compare:
	$(GO) run ./cmd/mdzbench -entropy -compare BENCH_entropy.json

# Multi-worker scaling benchmark: Writer compress MB/s over the
# Workers x Shards grid, baseline vs ADPSampleShards=1 alone (a single-knob
# ablation). Refreshes the committed report; CI diffs against it warn-only.
bench-scale:
	$(GO) run ./cmd/mdzbench -scale -json BENCH_scale.json

# Fast-read-path benchmark: ReadRange of a tail window vs serial prefix
# decode on an indexed stream, plus full decode over Workers 1, 2, 4 and 8.
# Refreshes the committed report; CI diffs against it warn-only.
bench-read:
	$(GO) run ./cmd/mdzbench -read -json BENCH_read.json

# Short fuzz pass over every differential and parser fuzzer in the tree.
# CI invokes this with FUZZTIME=10s; the default is a slightly longer local
# smoke. Each fuzzer runs alone (-fuzz takes one pattern per package run).
# FuzzV3Differential, FuzzDualRoundTrip and FuzzLZV3RoundTrip fuzz the
# read-only v3 decoders (block, dual-lane section, v3 LZ) from decodable
# seeds and check accepted inputs against the v2 decode.
# FuzzSeekRange checks Seek/ReadRange windows against a full sequential
# decode across writer and reader knobs.
FUZZTIME ?= 30s

fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzStreamReader$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointUnmarshal$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzV3Differential$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzSeekRange$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz '^FuzzReaderDifferential$$' -fuzztime $(FUZZTIME) ./internal/bitstream
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDifferential$$' -fuzztime $(FUZZTIME) ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzReadTableDifferential$$' -fuzztime $(FUZZTIME) ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeBytesEquivalence$$' -fuzztime $(FUZZTIME) ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzDualRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/huffman
	$(GO) test -run '^$$' -fuzz '^FuzzLZDifferential$$' -fuzztime $(FUZZTIME) ./internal/lossless
	$(GO) test -run '^$$' -fuzz '^FuzzLZV3RoundTrip$$' -fuzztime $(FUZZTIME) ./internal/lossless

# Fault-containment sweep, longer than the CI gate: the crash-consistency
# matrix at every output byte (MDZ_CHAOS_SWEEP), plus the stream fault
# matrix, cancellation, panic-isolation and budget tests, all under the
# race detector and repeated to vary goroutine schedules.
chaos:
	MDZ_CHAOS_SWEEP=1 $(GO) test -race -count=2 \
		-run 'CrashMatrix|StreamFault|StreamFragmented|Resync|Cancel|ContextDeadline|Panic|Budget|MaxDecode|NoFsync|Salvage' \
		. ./cmd/mdzc
	$(GO) test -race -count=2 ./internal/faultio ./internal/safeio ./internal/pool ./internal/budget

# Daemon soak: a few hundred concurrent streaming sessions against an
# in-process mdzd under the race detector, every tenth container verified
# byte-identical to a local library run. ci.sh runs a smaller smoke; this
# is the longer local version.
loadtest:
	$(GO) run -race ./cmd/mdzload -spawn -sessions 256 -frames 40 -atoms 300 -c 32 -verify 0.1

# Dictionary-coder hot path: LZ and byte-Huffman micro-benchmarks (with
# alloc counts), the pooled flate/zlib writers, and the pipeline-payload
# benchmark that replays the exact bytes the VQ pipeline hands the backend.
bench-lossless:
	$(GO) test -run xxx -bench 'LZCompress|LZDecompress|EncodeBytes|DecodeBytes|FlateCompress|ZlibCompress' -benchmem ./internal/lossless ./internal/huffman
	$(GO) test -run xxx -bench 'VQPayload' -benchmem ./internal/bench
