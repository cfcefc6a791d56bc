GO ?= go

.PHONY: check fmt vet lint build test race bench bench-smoke bench-robust

# check is the tier-1 verification entry point: formatting, static analysis,
# build, the full test suite, and the race detector over the
# concurrency-sensitive packages (evaluation cache, batched rollouts,
# evaluator, simulator).
check: fmt vet lint build test race

# fmt fails when gofmt would reformat any file, listing the files.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l lists unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs the deeper static analyzers when they are installed; environments
# without them (the default container) skip with a notice rather than fail,
# so `make check` stays runnable everywhere.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "lint: staticcheck/golangci-lint not installed, skipping"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race covers the packages with shared mutable state on the evaluation fast
# path (plus the fault/robustness machinery feeding it, the planning service
# whose worker pool shares warm caches across jobs, the telemetry watcher and
# event log hammered by concurrent pushes, the delta-compilation state in
# internal/plan, the durable store written from handlers/workers/monitors at once, the front router
# refreshing its backend view under concurrent submissions, the nn kernels
# and GAT encoder whose row bands run on several goroutines, and the
# distributed graph (internal/compiler) and rank computation (internal/sched)
# that concurrent evaluations of one cached artifact read through the
# topological order Verify keeps); running the whole tree under -race
# multiplies the RL/experiment test time ~10x for no extra coverage, so it is
# scoped deliberately.
race:
	$(GO) test -race ./internal/agent/... ./internal/cluster/... ./internal/compiler/... ./internal/evalcache/... ./internal/core/... ./internal/fleet/... ./internal/plan/... ./internal/sched/... ./internal/sim/... ./internal/faults/... ./internal/service/... ./internal/store/... ./internal/router/... ./internal/telemetry/... ./internal/nn/... ./internal/gnn/...

# bench regenerates the evaluation fast-path numbers recorded in
# BENCH_eval.json. The policy step and the simulator run at one and two
# procs: the policy kernels split their rows into bands across cores. The
# mutation-walk pair runs separately at a fixed iteration count: one op is
# one proposal of the walk TestIncrementalSpeedupGate gates, and 100 of
# them (the gate's count) amortize the one-off delta-state build the way
# the gate does.
bench:
	$(GO) test -run '^$$' -bench 'EvaluateCold|EvaluateCached|EvaluateBounded|RunEpisodesSequential|RunEpisodesParallel|RunEpisodes64$$|RunEpisodes64Pruned|SimPooledRun' -benchtime 2s -benchmem .
	$(GO) test -run '^$$' -bench 'PolicyStep|SimulatorBert|SimReuse' -cpu 1,2 -benchtime 2s -benchmem .
	$(GO) test -run '^$$' -bench 'RunEpisodes64Incremental|RunEpisodes64MutationFull' -benchtime 100x -benchmem .

# bench-smoke runs the CI speedup gates in bench_gate_test.go:
# TestIncrementalSpeedupGate (delta vs full evaluation on the same seeded
# mutation walk, >= 2x) and TestFleetSpeedupGate (four leased jobs on one
# Testbed64 vs the same jobs one at a time on the whole fleet, >= 1.5x).
bench-smoke:
	BENCH_SMOKE=1 $(GO) test -run 'SpeedupGate$$' -count=1 -v .

# bench-robust regenerates the fault/replanning exhibit recorded in
# BENCH_robust.json (nominal/p95/worst-case per workload + replan gains).
bench-robust:
	$(GO) run ./cmd/heterog-bench -exp robust -faults 4 -fault-seed 1 -out BENCH_robust.json
