# Development targets. `make check` is the full gate: gofmt, vet, build,
# lint, the tests (which replay every checked-in fuzz seed), the race suite,
# the parallel-determinism differential suite, and the memory ceiling.
GO ?= go

.PHONY: all build gofmt vet lint test race determinism memceiling profile fuzz check

all: build

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when gofmt would rewrite any.
gofmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis: difftracelint loads and type-checks
# every package in the module and proves the determinism/panic/concurrency
# discipline at compile time (see DESIGN.md §9 and §14). Exits non-zero on
# any unsuppressed diagnostic, including malformed //lint:allow directives.
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

check: gofmt vet build lint test race determinism memceiling
