# Tier-1 verification, one command: `make ci` mirrors the GitHub
# Actions workflow (.github/workflows/ci.yml) step for step.

GO ?= go

# COVER_FLOOR is the total-coverage gate: measured ~72% when the gate
# was added (PR 4), raised to 73 with the fleet runtime (PR 5, measured
# above it). Raise it as coverage grows; never lower it to get a
# change in.
COVER_FLOOR ?= 73

.PHONY: all build fmt vet test race bench bench-json bench-diff fuzz cover profile staticcheck ci

all: build

build:
	$(GO) build ./...

# fmt fails (like CI) when any file needs gofmt; run `gofmt -w .` to fix.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs -short: the full scenario matrix (trainer scenario tests)
# runs without the race detector in `make test`, keeping the slow
# race gate fast; ci runs both.
race:
	$(GO) test -race -short ./...

# bench is the smoke run: every benchmark once, no measurement loops.
# -benchmem makes every run report B/op and allocs/op, so the smoke
# also exercises the allocation accounting the JSON baseline gates on.
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./...

# bench-json runs the bench smoke and records a machine-readable
# baseline (ns/op per benchmark plus reported metrics such as
# BenchmarkFleetThroughput's iters/s) in BENCH_fleet.json, written
# atomically. Future PRs diff against it instead of eyeballing logs.
# The fleet throughput benchmark is re-sampled BENCH_COUNT times at
# BENCH_TIME iterations each (the JSON keeps one sample per name: the
# median normalized rate for the gated fleet sweep, fastest wall
# clock otherwise) so the recorded rate is a gateable number, not one
# noisy -benchtime=1x run.
BENCH_JSON ?= BENCH_fleet.json
# The hot-loop optimizations cut per-iteration work ~4x, so each 20x
# sample got noisier; 100x keeps a GC cycle or scheduler preemption
# landing inside one sample window from dominating that sample, and
# the median of 5 is stable where both best-of-wall-clock and the
# peak rate wobbled more than the regression band run to run.
BENCH_COUNT ?= 5
BENCH_TIME ?= 100x
# The warm plan lookup finishes in tens of microseconds (disk read +
# integrity check + decode), so BENCH_TIME=100x measures a few
# milliseconds of syscall-bound work — pure jitter. It gets its own
# much larger iteration budget; still cheap (5000 warm lookups take
# well under a second). The cold search stays on BENCH_TIME: it costs
# ~18ms per op, so 100x already measures seconds. Even so the warm
# rate is I/O-bound and noisier than the CPU-bound fleet sweeps — the
# gate that actually catches a warm-path regression (falling back to a
# cold search) is the deterministic allocs/op count, which would jump
# two orders of magnitude.
BENCH_WARM_TIME ?= 5000x
# The cold-admission storm pays 16 full cold searches per op (~25-60ms
# each way), so BENCH_TIME=100x would burn minutes measuring a number
# whose band is self-widened to ±60% anyway; 20x keeps the recording
# honest (a second-plus of measured work per sample) without
# dominating the bench-json run. Its tight gate is the one-sided
# allocs/op tripwire, which two ops already pin exactly.
BENCH_STORM_TIME ?= 20x
# bench-json and bench-diff run every benchmark at -cpu=1. go test
# appends "-N" to benchmark names at N > 1 procs, and the diff matches
# baseline entries by name, so a recording and a gate run at different
# proc counts share no names. The gated rates move with the proc count
# too, so the pin keeps every host, CI included, measuring what the
# baseline recorded.
bench-json:
	$(GO) test -cpu=1 -bench=. -benchtime=1x -benchmem -run='^$$' ./... > bench.out
	$(GO) test -cpu=1 -bench='BenchmarkFleetThroughput|BenchmarkServiceThroughput|BenchmarkWarmPlanSearch/cold' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem -run='^$$' . >> bench.out
	$(GO) test -cpu=1 -bench='BenchmarkWarmPlanSearch/warm' -benchtime=$(BENCH_WARM_TIME) -count=$(BENCH_COUNT) -benchmem -run='^$$' . >> bench.out
	$(GO) test -cpu=1 -bench='BenchmarkColdAdmissionStorm' -benchtime=$(BENCH_STORM_TIME) -count=$(BENCH_COUNT) -benchmem -run='^$$' . >> bench.out
	$(GO) run ./cmd/disttrain-benchjson -o $(BENCH_JSON) < bench.out
	@rm -f bench.out

# bench-diff is the perf regression gate: rerun the fleet and
# shared-preprocessing-service throughput benchmarks at -cpu=1 (median
# of BENCH_COUNT samples, like the baseline) and
# fail when any job count's calibration-normalized rate (norm-iters/s
# — cpu-iters/s divided by in-process spin rates bracketing each
# sample, so CPU frequency and throttle state cancel) lands outside
# ±BENCH_BAND% of the committed $(BENCH_JSON) baseline, or its
# allocs/op count grows past +BENCH_ALLOC_BAND%. The rate band is
# deliberately coarse: a virtualized single-core runner keeps ±10-15%
# of throughput noise after all the statistics, so the tight tripwire
# is the allocation count, which is deterministic to the single alloc
# — a hot-loop regression (reintroduced sort, per-iteration slice
# churn) moves allocs/op immediately, while the rate band catches
# wholesale collapses. On a real regression, fix it; on an intentional
# change, re-record with `make bench-json` and commit the new
# baseline.
BENCH_BAND ?= 25
BENCH_ALLOC_BAND ?= 10
bench-diff:
	$(GO) test -cpu=1 -bench='BenchmarkFleetThroughput|BenchmarkServiceThroughput|BenchmarkWarmPlanSearch/cold' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -benchmem -run='^$$' . > bench.out
	$(GO) test -cpu=1 -bench='BenchmarkWarmPlanSearch/warm' -benchtime=$(BENCH_WARM_TIME) -count=$(BENCH_COUNT) -benchmem -run='^$$' . >> bench.out
	$(GO) test -cpu=1 -bench='BenchmarkColdAdmissionStorm' -benchtime=$(BENCH_STORM_TIME) -count=$(BENCH_COUNT) -benchmem -run='^$$' . >> bench.out
	$(GO) run ./cmd/disttrain-benchjson -diff $(BENCH_JSON) -band $(BENCH_BAND) -alloc-band $(BENCH_ALLOC_BAND) < bench.out
	@rm -f bench.out

# profile runs the steady fleet shape — PROF_JOBS identical 9b tenants
# on 2-node leases for PROF_ITERS iterations, about a second of work —
# under the pprof flags and leaves cpu/heap/mutex profiles in
# $(PROF_DIR). Read them with e.g.
#   go tool pprof -top $(PROF_DIR)/fleet-cpu.pprof
#   go tool pprof -sample_index=alloc_objects -top $(PROF_DIR)/fleet-mem.pprof
# The fleet trace is opt-in (PROF_TRACE=1 writes
# $(PROF_DIR)/fleet-trace.json): at the default size it is ~200 MB
# and tracing dominates the profile. This is the workflow behind the
# hot-loop and cost-table optimizations; see "Profiling & performance"
# in the README.
PROF_DIR ?= profiles
PROF_JOBS ?= 256
PROF_ITERS ?= 40
PROF_TRACE ?= 0
profile: build
	@mkdir -p $(PROF_DIR)
	$(GO) run ./cmd/disttrain-fleet -nodes $$(( 2 * $(PROF_JOBS) )) -jobs $(PROF_JOBS) \
		-job-iters $(PROF_ITERS) -job-nodes 2-2 -batch 32 \
		$(if $(filter 1,$(PROF_TRACE)),-trace $(PROF_DIR)/fleet-trace.json) \
		-plan-cache-dir $(PROF_DIR)/plan-cache \
		-cpuprofile $(PROF_DIR)/fleet-cpu.pprof \
		-memprofile $(PROF_DIR)/fleet-mem.pprof \
		-mutexprofile $(PROF_DIR)/fleet-mutex.pprof
	@echo "profiles written to $(PROF_DIR)/"

# staticcheck runs honnef.co/go/tools with the checks pinned in
# staticcheck.conf. The binary is not vendored: CI installs a pinned
# version; locally the target skips (with a note) when the tool is
# absent, so `make ci` never needs network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed, skipping (CI runs it; go install honnef.co/go/tools/cmd/staticcheck@2025.1 to run locally)"; \
	fi

# fuzz smoke: hammer the user-facing parsers with generated inputs for
# a few seconds each — the preprocessing wire protocol and the scenario
# grammar (the seeded corpora always run in plain `make test`).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseBatch -fuzztime=5s ./internal/preprocess
	$(GO) test -run='^$$' -fuzz=FuzzScenarioParse -fuzztime=5s ./internal/scenario

# cover fails when total statement coverage regresses below
# COVER_FLOOR. Writes cover.out for per-package reporting.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "FAIL: total coverage $$total% regressed below the $(COVER_FLOOR)% floor"; exit 1; }

ci: build fmt vet staticcheck test race bench bench-diff fuzz cover
