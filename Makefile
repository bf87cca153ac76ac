# Development targets. `make check` is the full gate and CI's `check` and
# `memceiling` jobs run its steps by name: gofmt, vet, build, lint, the tests
# (which replay every checked-in fuzz seed), the race suite, the
# parallel-determinism differential suite under two GOMAXPROCS settings, the
# benchmark module's vet and tests, the benchmark smoke run, every benchmark
# once, and the memory ceiling.
GO ?= go

.PHONY: all build gofmt vet lint test race determinism determinism-procs perfbench smoke benchonce memceiling profile fuzz check

all: build

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite any.
gofmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis: difftracelint type-checks every
# package in the module (the standard library from export data, through
# `go list -export`) and proves the determinism/panic/concurrency/
# cancellation discipline at compile time, one check per invariant (see
# DESIGN.md §9 and §14). Exits non-zero on any unsuppressed diagnostic,
# including malformed //lint:allow directives.
lint:
	$(GO) run ./cmd/difftracelint ./...

test:
	$(GO) test ./...

# -short skips the slowest tests to keep the raced run short: the
# experiment shape checks and application-workload replays, the end-to-end
# app matrix, the daemon e2e, the whole-module lint self-check, and the
# memory ceiling. They run, unraced, in the `test` target.
race:
	$(GO) test -race -short ./...

# Differential suite for the intra-run worker pool: every parallel path
# must produce the byte-identical report of the sequential one, under the
# race detector, twice (-count=2 defeats test caching and catches
# order-dependent state). -short skips the slowest workload replays, same
# as the race target. The root package carries the golden lattice suite
# (byte-identical Render/Concepts/Edges across worker counts and across
# the bitset FCA rewrite).
determinism:
	$(GO) test -race -short -count=2 \
		-run 'Determinism|Workers|ParallelMatchesSequential|ParallelSweep|Ghost|Divergence' \
		./internal/core ./internal/jaccard ./internal/rank ./internal/obs \
		./internal/experiments ./internal/resilience/chaos ./internal/service \
		./internal/diffnlr ./cmd/difftrace .

# The determinism suite away from the host's CPU count: one scheduler
# thread, and more threads than most hosts have CPUs.
determinism-procs:
	GOMAXPROCS=1 $(MAKE) determinism
	GOMAXPROCS=8 $(MAKE) determinism

# The benchmark module calls internal APIs (filter.Memo, the NLR Summarizer
# and overlays, SymbolReader, Registry.Name, core.DiffRun*) but sits outside
# ./..., so no other target builds it: an API change that breaks it would
# otherwise pass.
perfbench:
	cd _perfbench && $(GO) vet ./... && $(GO) test ./...

# Each benchmark workload once, at the seed whose report digests
# _perfbench/digest.go records: a change to report bytes fails here rather
# than only when the benchmark is next run. The last line of a run is the
# result, the line before it the report.
smoke:
	@for w in stream-loopy sweep-lulesh daemon-mix; do \
		out=$$(bash _perfbench/run.sh --workload "$$w" --seed 1 --seconds 1 --trace 0) || { echo "$$w: run failed"; exit 1; }; \
		echo "$$out"; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || { echo "$$w: result is not correct"; exit 1; }; \
		echo "$$out" | tail -n 2 | head -n 1 | grep -q '"digest_checked":true' || { echo "$$w: report digest not checked"; exit 1; }; \
	done

# Every benchmark once: a benchmark that fails or panics would otherwise go
# unnoticed, since no other target runs them.
benchonce:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# Profile run: CPU-profile the Table IX LULESH ranking sweep benchmark, then
# drive the CLI over a generated oddeven pair with -manifest and -metrics.
# Artifacts land in ./profiles/ (pprof profile, test binary for symbolized
# `go tool pprof`, trace pair, run manifest).
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkTableIX_RankingLULESH$$' -benchtime=3x \
		-cpuprofile profiles/cpu.pprof -o profiles/difftrace.test .
	$(GO) run ./cmd/tracegen -app oddeven -procs 16 -o profiles/normal.trace
	$(GO) run ./cmd/tracegen -app oddeven -procs 16 -fault swapBug -o profiles/faulty.trace
	$(GO) run ./cmd/difftrace -normal profiles/normal.trace -faulty profiles/faulty.trace \
		-manifest profiles/manifest.json -metrics > /dev/null
	@echo "profiles/: cpu.pprof (inspect with '$(GO) tool pprof profiles/difftrace.test profiles/cpu.pprof'), manifest.json"

# Short live fuzzing session over the trace readers, the equivalence
# targets (streaming reader vs batch reader, NLR summarizer and its
# overlay rounds vs the frozen string-keyed reference), and the divergence
# alignment walk.
fuzz:
	$(GO) test -fuzz=FuzzReadSetText -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzReadSetBinary -fuzztime=30s ./internal/parlot
	$(GO) test -fuzz=FuzzStreamReader -fuzztime=30s ./internal/parlot
	$(GO) test -fuzz=FuzzSummarizeReference -fuzztime=30s ./internal/nlr/reftest
	$(GO) test -fuzz=FuzzOverlayRounds -fuzztime=30s ./internal/nlr/reftest
	$(GO) test -fuzz=FuzzFindDivergence -fuzztime=30s ./internal/diffnlr

# Streaming memory-ceiling proof: a 24M-event pair whose expansion is >=20x
# the 8 MiB heap budget must analyze without the live heap ever crossing
# it. Skipped under -short; CI runs it in its own job.
memceiling:
	$(GO) test -run 'TestStreamingMemoryCeiling' -count=1 -v -timeout 600s .

check: gofmt vet build lint test race determinism-procs perfbench smoke benchonce memceiling
