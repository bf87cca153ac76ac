# Development targets. `make check` is the full gate: vet, build, the race
# suite, the parallel-determinism differential suite, and a replay of the
# corrupt-input fuzz seed corpora.
GO ?= go

.PHONY: all build vet lint test race determinism bench bench-fca bench-obs bench-streaming bench-lint memceiling profile fuzz-seeds fuzz check

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-invariant static analysis: difftracelint loads and type-checks
# every package in the module and proves the determinism/panic/concurrency
# discipline at compile time (see DESIGN.md §9 and §14). Exits non-zero on
# any unsuppressed diagnostic, including malformed //lint:allow directives.
# .lintcache persists the interprocedural summary layer between runs, keyed
# on each package's source hash — a no-change rerun skips the summary walk.
lint:
	$(GO) run ./cmd/difftracelint -summary-cache .lintcache ./...

test:
	$(GO) test ./...

# -short skips the experiment shape checks: their OMP consensus rankings are
# scheduling-sensitive and the race detector perturbs goroutine timing enough
# to flip them (they run, unraced, in the `test` target).
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
		-run 'Determinism|Workers|ParallelMatchesSequential|Ghost|Divergence|Query' \
		./internal/core ./internal/jaccard ./internal/rank ./internal/obs \
		./internal/experiments ./internal/resilience/chaos ./internal/service \
		./internal/query ./internal/diffnlr \
		./cmd/difftrace .

# Worker-sweep benchmarks; regenerates the BENCH_parallel.json baseline.
# On a single-CPU host the sweep measures overhead, not speedup (the JSON
# notes which); on multicore expect >=2x at workers=4. benchjson refuses to
# shrink an existing baseline (interrupted run, narrower regex); pass
# BENCHJSON_FLAGS=-force to override.
bench: bench-fca
	$(GO) test -run '^$$' -bench 'BenchmarkParallel_DiffRun|BenchmarkFig4_JSM' \
		-benchmem -benchtime=3x . | tee /dev/stderr | $(GO) run ./cmd/benchjson \
		-out BENCH_parallel.json $(BENCHJSON_FLAGS)

# FCA representation benchmarks: bitset engine vs the frozen map-based
# reference (internal/fca/reftest) on the same contexts; regenerates the
# BENCH_fca.json baseline. The impl=bitset / impl=mapref ratio on
# BenchmarkFCA_Godin is the headline number of the bitset rewrite.
bench-fca:
	$(GO) test -run '^$$' -bench 'BenchmarkFCA_' \
		-benchmem -benchtime=3x -timeout 1200s . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -out BENCH_fca.json $(BENCHJSON_FLAGS)

# Profile run: CPU-profile the Fig4-scale synthetic pipeline benchmark, then
# drive the CLI over a generated oddeven pair with -manifest and -metrics.
# Artifacts land in ./profiles/ (pprof profile, test binary for symbolized
# `go tool pprof`, trace pair, run manifest).
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkParallel_DiffRun$$' -benchtime=3x \
		-cpuprofile profiles/cpu.pprof -o profiles/difftrace.test .
	$(GO) run ./cmd/tracegen -app oddeven -procs 16 -o profiles/normal.trace
	$(GO) run ./cmd/tracegen -app oddeven -procs 16 -fault swapBug -o profiles/faulty.trace
	$(GO) run ./cmd/difftrace -normal profiles/normal.trace -faulty profiles/faulty.trace \
		-manifest profiles/manifest.json -metrics > /dev/null
	@echo "profiles/: cpu.pprof (inspect with '$(GO) tool pprof profiles/difftrace.test profiles/cpu.pprof'), manifest.json"

# Replay the checked-in fuzz seeds (corrupt/truncated trace corpora, plus
# the bitset-vs-map AttrSet and NLR-vs-reference equivalence scripts) as
# regular tests — no fuzzing engine, deterministic, fast.
fuzz-seeds:
	$(GO) test -run='^Fuzz' ./internal/trace ./internal/parlot ./internal/nlr ./internal/nlr/reftest ./internal/fca/reftest ./internal/diffnlr

# Short live fuzzing session over the trace readers, the equivalence
# targets (streaming reader vs batch reader, NLR summarizer vs its frozen
# string-keyed reference), and the divergence alignment walk.
fuzz:
	$(GO) test -fuzz=FuzzReadSetText -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzReadSetBinary -fuzztime=30s ./internal/parlot
	$(GO) test -fuzz=FuzzStreamReader -fuzztime=30s ./internal/parlot
	$(GO) test -fuzz=FuzzSummarizeReference -fuzztime=30s ./internal/nlr/reftest
	$(GO) test -fuzz=FuzzFindDivergence -fuzztime=30s ./internal/diffnlr

# Telemetry overhead benchmark: the fully-instrumented job path (obs.Run,
# trace ID, live Progress, heap sampler, JSON logger) vs the telemetry-nil
# pipeline on the BenchmarkParallel_DiffRun workload; regenerates the
# BENCH_obs.json baseline. The acceptance bar is telemetry=on within 3% of
# telemetry=nil wall time (use -benchtime=10x for a stable ratio; 3x is
# the quick CI-sized run).
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkTelemetryOverhead_' \
		-benchmem -benchtime=5x -timeout 1200s . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -out BENCH_obs.json $(BENCHJSON_FLAGS)

# Streaming-vs-batch benchmark on the same PLOT1 bytes; regenerates the
# BENCH_streaming.json baseline. The headline numbers are peak-heap-MiB
# (batch materializes the expansion, streaming re-decodes per round) and
# the wall-time delta the differential suite proves buys identical output.
bench-streaming:
	$(GO) test -run '^$$' -bench 'BenchmarkStreaming_' \
		-benchmem -benchtime=3x -timeout 1200s . | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -out BENCH_streaming.json $(BENCHJSON_FLAGS)

# Lint-driver worker sweep over the full module (load once, then the check
# fan-out at workers=1/2/4/8); regenerates the BENCH_lint.json baseline.
# workers=1 is the pre-parallel driver, workers=GOMAXPROCS is what `make
# lint` runs; the self-check proves every count emits identical output.
bench-lint:
	$(GO) test -run '^$$' -bench 'BenchmarkLint_' \
		-benchtime=3x -timeout 1200s ./internal/lint/checks | tee /dev/stderr | \
		$(GO) run ./cmd/benchjson -out BENCH_lint.json $(BENCHJSON_FLAGS)

# Streaming memory-ceiling proof: a 24M-event pair whose expansion is >=20x
# the 8 MiB heap budget must analyze without the live heap ever crossing
# it. Skipped under -short; CI runs it in its own job.
memceiling:
	$(GO) test -run 'TestStreamingMemoryCeiling' -count=1 -v -timeout 600s .

check: vet build lint test race determinism fuzz-seeds memceiling
