GO ?= go

.PHONY: build test vet race bench bench-compare bench-all check fuzz chaos soak smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race-detector runs multiply wall time 10-20x; on a slow or
# single-core host internal/core can exceed go test's default 10m
# per-package timeout, so give it explicit headroom.
race:
	$(GO) test -race -timeout 30m ./...

# check is the CI gate: static analysis plus the full suite under the
# race detector (which includes the concurrent-vs-sequential engine test).
check: vet race

# fuzz runs the untrusted-input fuzz targets for a short budget each:
# the trace decoder (LoadBytes, which reads disk and remote payloads) and
# assembler parsing. CI runs this non-gating;
# raise FUZZTIME for local soaking.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz '^FuzzTraceLoadBytes$$' -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -fuzz '^FuzzAsmParse$$' -fuzztime $(FUZZTIME) ./internal/asm

# chaos runs the fault-injection soak on its own under the race detector.
chaos:
	$(GO) test -race -timeout 30m -run '^TestChaosSoak$$' -v ./internal/core

# soak runs the daemon chaos soak: the full HTTP service path (admission,
# backpressure, retries, drain) under injected faults, with completed
# responses held bit-identical to a clean direct run.
soak:
	$(GO) test -race -timeout 30m -run '^TestServerChaosSoak$$' -v ./internal/server

# smoke starts a real deadd with a temp persistent cache, drives it with
# deadload, SIGTERMs it, and asserts a clean drain (exit 0) that spilled
# artifacts to disk.
smoke:
	./scripts/daemon_smoke.sh

# SUBSTRATE_BENCHES are the per-substrate throughput benchmarks tracked in
# the committed BENCH_*.json reports: emulator, the streamed
# emulate→analyze path, fused oracle (plus the ineffectuality-dense
# variant), pipeline timing model (single-cluster and two-cluster
# steered), the linked trace format's round trip, the persistent artifact
# tier's cold/warm comparison, the service tier's request-coalescing burst
# comparison, and the full experiment engine.
SUBSTRATE_BENCHES = ^(BenchmarkEmulator|BenchmarkCollectAnalyzed|BenchmarkDeadnessOracle|BenchmarkIneffAnalysis|BenchmarkPipeline|BenchmarkClusteredPipeline|BenchmarkTraceSaveLoad|BenchmarkProfileDiskCache|BenchmarkCoalescedLoad|BenchmarkEngineAllExperiments)$$

# BENCH_BASELINE is the committed report that bench-compare diffs against;
# BENCH_TOL is the relative regression tolerance (benchmarks vary with
# host hardware, so keep it loose).
BENCH_BASELINE ?= BENCH_12.json
BENCH_TOL ?= 0.25

# bench regenerates $(BENCH_BASELINE) from the substrate benchmarks (with
# -benchmem, so allocation counts are tracked alongside throughput).
bench:
	$(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCHES)' -benchmem . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o $(BENCH_BASELINE)

# bench-compare reruns the substrate benchmarks and diffs them against the
# committed baseline without overwriting it: every shared metric prints
# old/new/delta, and a metric more than $(BENCH_TOL) worse flags a
# regression (nonzero exit). CI runs this non-gating.
bench-compare:
	$(GO) test -run '^$$' -bench '$(SUBSTRATE_BENCHES)' -benchmem . \
		| $(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) -tol $(BENCH_TOL)

# bench-all runs every benchmark once, as a smoke test.
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
