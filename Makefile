# Developer/CI entry points. `make ci` is the gate a change must pass:
# vet + gofmt + build + race-enabled tests (including the exact zero-alloc
# tests of the cycle loop and its structures) + a single-iteration benchmark
# smoke run (catches benchmarks that no longer compile or crash without
# paying for a full measurement) + vet and tests of the nested bench/
# module, which root `go test ./...` skips + short fuzz runs of the
# word-granular memory paths, the memoizing cache and the functional
# interpreter against their references + a one-second pass of every bench/ workload that must report
# correct output + the serving, sampling and cluster smoke tests.
#
# Timings are not gated here: a change that only slows the simulator passes
# `make ci`. Judge timings with `bash bench/ab.sh REV`, which runs
# alternating pairs against a revision and tells a change from host noise.

GO ?= go

.PHONY: all vet fmt-check build test race bench-smoke fuzz-smoke bench bench-build bench-verify serve-smoke sample-smoke cluster-smoke ci

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
# memoizing cache vs its search-every-access reference, the functional
# interpreter (Exec and the record it rebuilds) vs the reference
# interpreter it replaced, and the snapshot and replay-stream decoders
# against arbitrary bytes.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSparseWordVsByte -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzCacheVsReference -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzExecVsReference -fuzztime 10s ./internal/arch
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/snapshot
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/replay

# Full measured run of the Go benchmarks.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The repository benchmark (bench/, its own module) compiles against the
# snapshot, replay, sample, harness and service APIs; vet and test it so an
# API change cannot break it unnoticed.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# A one-second pass of every bench/ workload: it must measure, and every
# workload must report output matching bench/testdata/digests.json. Its
# timings are not judged (see the header).
bench-verify:
	rm -f .bench_build/ci.json
	bash bench/run.sh --seconds 1 --out .bench_build/ci.json
	@if ! grep -q '"correct":true' .bench_build/ci.json || grep -q '"correct":false' .bench_build/ci.json; then \
		echo "bench-verify: a workload reported incorrect output (see .bench_build/ci.json)"; exit 1; fi

# End-to-end smoke of the serving stack: sfcserve on an ephemeral port,
# an sfcload burst that must hit the cache/coalescer for >=50% of requests,
# sfcsim -json reporting the config name and cycles /v1/run reports for the
# same request, and a clean SIGTERM drain.
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

ci: vet fmt-check build race bench-smoke bench-build fuzz-smoke bench-verify serve-smoke sample-smoke cluster-smoke
