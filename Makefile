# Developer/CI entry points. `make ci` is the gate a change must pass:
# vet + gofmt + build + race-enabled tests + a single-iteration benchmark
# smoke run (catches benchmarks that no longer compile or crash without
# paying for a full measurement) + short fuzz runs of the word-granular
# memory paths and the memoizing cache against their references + the
# measured suite diffed against the committed baseline report
# (calibration-normalized ns/op, exact alloc and zero-byte guarantees, and a
# failure on any entry the baseline is missing) + vet and tests of the nested
# bench/ module, which root `go test ./...` skips.

GO ?= go

.PHONY: all vet fmt-check build test race bench-smoke fuzz-smoke bench bench-json bench-check bench-build serve-smoke sample-smoke cluster-smoke ci

all: build

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean (gofmt -l prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run '^$$' .

# Short fuzz runs (the seeded corpora always run; the time budget explores
# beyond them): the Sparse word paths vs the per-byte reference, the
# memoizing cache vs its search-every-access reference, and the snapshot and
# replay-stream decoders against arbitrary bytes.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSparseWordVsByte -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzCacheVsReference -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/replay

# Full measured run of the Go benchmarks.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Regenerate the machine-readable benchmark report.
bench-json:
	$(GO) run ./cmd/sfcbench -insts 20000 -json BENCH_PR10.json bench all

# Diff a fresh run against the committed report. The tool's default
# tolerance (10%) suits a quiet, pinned machine; shared runners see
# memory-bandwidth contention spikes of ~40% that pure-CPU calibration
# cannot divide out, so the convenience target allows 50% — loose for small
# slips, but alloc regressions are always flagged exactly, and losing the
# event wheel (+700% ns/op) or the entry pool (+2000%) trips it instantly.
bench-check:
	$(GO) run ./cmd/sfcbench -insts 20000 -baseline BENCH_PR10.json -tolerance 0.5 bench all

# The repository benchmark (bench/, its own module) compiles against the
# snapshot, replay, sample, harness and service APIs; vet and test it so an
# API change cannot break it unnoticed.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# End-to-end smoke of the serving stack: sfcserve on an ephemeral port,
# an sfcload burst that must hit the cache/coalescer for >=50% of requests,
# and a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of the checkpoint & sampling subsystem: a fast-forward
# run against an on-disk checkpoint store must miss cold, hit warm, and
# report identical measured statistics either way; a sampled run must emit
# a well-formed sampling block.
sample-smoke:
	sh scripts/sample_smoke.sh

# End-to-end smoke of the distributed sweep fabric: coordinator + two
# loopback workers, placement-routed sweeps byte-identical to a single
# node (including after a mid-sweep worker kill), automatic ejection, and
# a clean drain.
cluster-smoke:
	sh scripts/cluster_smoke.sh

ci: vet fmt-check build race bench-smoke bench-build fuzz-smoke bench-check serve-smoke sample-smoke cluster-smoke
