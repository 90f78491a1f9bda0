GO ?= go

.PHONY: build test vet race bench-all check fuzz chaos soak smoke cancel-window cli-smoke loc

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
# the trace decoder (LoadBytes, which reads disk and remote payloads),
# the artifact frame verifier (Unframe, which guards every remote fetch),
# the profile, profile-facts, result (predeval and machine) and
# experiment decoders (which read disk and remote entries; the
# experiment target also bounds what Render of an accepted payload
# allocates), predictor geometry from the
# daemon (Config.Validate), the daemon's request-body decoder
# (decodeBody), and assembler parsing. CI runs this non-gating; raise
# FUZZTIME for local soaking. -run '^$$' skips the package's unit tests,
# which `make test` runs: without it each line ran the whole suite before
# its window, internal/core's for ~110 s ahead of each of its three 30s
# windows, and `make fuzz` took 593 s instead of 255 s on a 2-vCPU host.
# Each input that widens coverage is minimized for at most 2s: go's
# default of 60s outlasts the whole window, so the slower decoders used
# to stop fuzzing after a few seconds (FuzzProfileDecode ran 66-184
# execs in 30s; with 2s it runs tens of thousands).
FUZZTIME ?= 30s
FUZZFLAGS = -run '^$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s
fuzz:
	$(GO) test -fuzz '^FuzzTraceLoadBytes$$' $(FUZZFLAGS) ./internal/trace
	$(GO) test -fuzz '^FuzzUnframe$$' $(FUZZFLAGS) ./internal/artifact
	$(GO) test -fuzz '^FuzzProfileDecode$$' $(FUZZFLAGS) ./internal/core
	$(GO) test -fuzz '^FuzzFactsDecode$$' $(FUZZFLAGS) ./internal/core
	$(GO) test -fuzz '^FuzzResultDecode$$' $(FUZZFLAGS) ./internal/core
	$(GO) test -fuzz '^FuzzExperimentDecode$$' $(FUZZFLAGS) ./internal/core
	$(GO) test -fuzz '^FuzzConfigValidate$$' $(FUZZFLAGS) ./internal/dip
	$(GO) test -fuzz '^FuzzDecodeBody$$' $(FUZZFLAGS) ./internal/server
	$(GO) test -fuzz '^FuzzAsmParse$$' $(FUZZFLAGS) ./internal/asm

# chaos runs the fault-injection soak on its own under the race detector.
chaos:
	$(GO) test -race -timeout 30m -run '^TestChaosSoak$$' -v ./internal/core

# soak runs the daemon chaos soak: the full HTTP service path (admission,
# backpressure, drain) under injected faults, with completed responses
# held bit-identical to a clean direct run.
soak:
	$(GO) test -race -timeout 30m -run '^TestServerChaosSoak$$' -v ./internal/server

# cancel-window repeats the tests of the artifact store's cancellation
# window under the race detector: a build whose last waiter left is never
# joined, a surviving waiter adopts a build its originator abandoned, and
# the request after a client disconnect gets a fresh build. Experiments
# are artifacts, so the window covers them too: concurrent requests for
# one experiment share its build, and an experiment's deadline ends its
# wait and cancels the build it alone waited on. Nothing retries a
# request that inherits a cancelled build's error, so these tests alone
# hold that contract.
cancel-window:
	$(GO) test -race -count=20 -run '^(TestAbandonedBuildNotJoined|TestLastWaiterCancelsBuild|TestAdoptionSurvivesOriginatorCancel|TestClientDisconnectRecovery|TestAdoptionAcrossRequests|TestConcurrentExperimentsShareOneBuild|TestExperimentDeadlineAbandonsInflightBuild|TestWorkspaceTimeoutBoundsAttempts)$$' ./internal/artifact ./internal/core ./internal/server

# smoke starts a real deadd with a temp persistent cache and one injected
# artifact.disk write fault, drives it with deadload, SIGTERMs it, and
# asserts a clean drain (exit 0) that wrote the dropped artifact to disk.
smoke:
	./scripts/daemon_smoke.sh

# cli-smoke builds the command-line tools and checks their exit codes:
# 2 for a usage error in every tool, and 3 for an experiments run in
# which one experiment fails and another still reports its results.
cli-smoke:
	./scripts/cli_smoke.sh

# bench-all runs every Go benchmark once, as a gating smoke test: each
# benchmark's own checks (a warm ProfileDiskCache iteration that rebuilt,
# facts builds that opened profile builds, an experiment missing a
# metric) fail it. It compares no numbers; `bash benchmark/run.sh
# -against <checkout>` makes paired end-to-end comparisons.
bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# loc prints the repository's size measure: lines of committed non-test Go
# outside benchmark/ (the benchmark is its own module and measures the
# program rather than being part of it).
loc:
	@git ls-files '*.go' ':!:*_test.go' ':!:benchmark/' | xargs cat | wc -l
