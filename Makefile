GO ?= go

.PHONY: check fmt vet lint lint-human build test race bench-json profile fuzz-smoke

## check: the full pre-PR gate. Everything below must pass before merging.
check: fmt vet lint-human build test race
	@echo "check: OK"

fmt:
	@out="$$(gofmt -l cmd internal examples *.go)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

## lint: simulator-aware static analysis (call-graph reachability rules,
## config/stat invariants; see DESIGN.md §7 and §11) against the committed
## baseline, emitting the machine-readable report CI uploads as an
## artifact. Exit 1 means a non-baselined finding.
BRLINT_REPORT ?= brlint-report.json
lint:
	@$(GO) run ./cmd/brlint -json -baseline brlint.baseline > $(BRLINT_REPORT); \
	status=$$?; \
	cat $(BRLINT_REPORT); \
	exit $$status

## lint-human: the same gate with human-readable file:line output, for the
## local pre-PR `make check` path.
lint-human:
	$(GO) run ./cmd/brlint -baseline brlint.baseline ./...

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

## race: the packages with cross-structure pointer protocols, the
## parallel experiment runner and the job-queue server get an extra
## race-detector pass. internal/sim alone takes over 8 minutes under the
## race detector on a 2-CPU host, close to go test's default 10-minute
## per-binary timeout, so the timeout is raised rather than left to the
## speed of the runner.
race:
	$(GO) test -race -timeout 20m ./internal/sim ./internal/runahead ./internal/experiments/... ./internal/server

## bench-json: record the simulator-throughput (execution-driven and
## trace-replay), parallel-suite, warm-cache, shared-warmup-sweep,
## Figure 15 predictor-head-to-head and warm-HTTP-request benchmarks as
## committed JSON for cross-PR comparison. Override BENCH_OUT to compare
## against a prior snapshot.
BENCH_OUT ?= BENCH_7.json
bench-json:
	$(GO) test -bench 'BenchmarkBaselineSimSpeed|BenchmarkTraceReplaySpeed|BenchmarkRunaheadSimSpeed|BenchmarkSuiteParallelSpeedup|BenchmarkSweepWarmupShared|BenchmarkSuiteWarmCacheSpeedup|BenchmarkServeWarmRequest|BenchmarkFigure15$$' -run '^$$' -benchtime 3x . \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)
	@cat $(BENCH_OUT)

## profile: a CPU profile of the execution-driven simulator-throughput
## benchmarks (baseline core, and the core with Mini Branch Runahead),
## printed flat by `go tool pprof -top`. The profile and the test binary
## pprof symbolizes it with stay in PROFILE_DIR, which is not committed.
PROFILE_DIR ?= .profile
profile:
	@mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkBaselineSimSpeed$$|BenchmarkRunaheadSimSpeed$$' -benchtime 10x \
		-cpuprofile $(PROFILE_DIR)/cpu.pprof -o $(PROFILE_DIR)/repro.test .
	$(GO) tool pprof -top -nodecount 30 $(PROFILE_DIR)/repro.test $(PROFILE_DIR)/cpu.pprof

## fuzz-smoke: a bounded pass over each native fuzz target — the brstate
## codec reader, the branch-trace decoder, the persistent-cache result
## decoder and the brserve request decoder. CI runs this on every push;
## for a real fuzzing session raise FUZZTIME or run the targets
## individually.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/brstate
	$(GO) test -run '^$$' -fuzz 'FuzzTraceReader$$' -fuzztime $(FUZZTIME) ./internal/btrace
	$(GO) test -run '^$$' -fuzz 'FuzzLoadResult$$' -fuzztime $(FUZZTIME) ./internal/experiments
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRequest$$' -fuzztime $(FUZZTIME) ./internal/server
