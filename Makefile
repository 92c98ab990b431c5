# Standard developer targets. CI runs `make check`.

GO ?= go

.PHONY: build test vet race check bench churn-drill report-drill stream-drill fleet-drill adapt-drill perfbench-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector pass over the concurrent transport/pipeline paths
# (reconnect, send horizons, quarantine accounting, queues), the buffer
# pool (lease aliasing, cross-domain steals), the telemetry layer
# (histograms, sampler, live endpoint), and the tracing layer
# (concurrent Add/WriteJSON, chunk framing), the snapshot-diff
# observer (scrape-while-streaming), and the fleet aggregator
# (Start/Stop ticker, concurrent Status/Alerts reads, HTTP scraping),
# and the adaptive placement controller (window callbacks racing pool
# resizes; the elastic-pool storm tests live in internal/pipeline).
race:
	$(GO) test -race ./internal/adapt/... ./internal/bufpool/... ./internal/chunk/... ./internal/faults/... ./internal/fleet/... ./internal/metrics/... ./internal/msgq/... ./internal/obs/... ./internal/pipeline/... ./internal/queue/... ./internal/telemetry/... ./internal/trace/...
	$(GO) test -race -run 'TestChurn|TestMultiHop|TestThousand|TestAdapt' ./internal/cluster/... ./internal/experiments/...

# Churn drill: the seeded netsim churn storm (multi-hop topology events,
# per-event fault attribution) and the real-mode relay kill/restart
# drill (exactly-once ledger: delivered == sent, dups dropped, no
# holes). These also run under `make test`; the named target is the
# quick way to replay just the storm.
churn-drill:
	$(GO) test -count=1 -run 'TestChurn|TestMultiHop|TestTopo|TestForwarder|TestLedger' ./internal/faults/... ./internal/cluster/... ./internal/pipeline/... ./internal/experiments/...

# Report drill: run the degraded-link simulation with self-diagnosis on
# and assert the report is well-formed — at least one window, and every
# window carries a verdict (the '"t0":' key count is per-window; the run
# bounds use "t0_run"/"t1_run" precisely so this grep stays exact).
report-drill:
	$(GO) run ./cmd/experiments -fig none -degraded -report report-drill.json
	@windows=$$(grep -c '"t0":' report-drill.json); \
	verdicts=$$(grep -c '"verdict":' report-drill.json); \
	if [ "$$windows" -eq 0 ] || [ "$$windows" -ne "$$verdicts" ]; then \
		echo "report-drill: $$windows windows vs $$verdicts verdicts"; exit 1; \
	fi; \
	echo "report-drill: $$windows windows, every one carries a verdict"

# Stream drill: the thousand-stream gateway soak. First a deterministic
# 256-stream loopback pass through the real sharded receive path — the
# exactly-once ledger must close on every stream (holes 0, abandoned 0)
# with the slowest stream at >= 50% of fair per-stream throughput. Then
# the 1000-stream simulated drill twice with the same seed: both runs
# must pass the same assertions and render byte-identical JSON.
stream-drill:
	$(GO) run ./cmd/loadgen --mode loopback --streams 256 --chunks 16 --chunk-bytes 16384 --seed 42 --assert
	$(GO) run ./cmd/loadgen --streams 1000 --seed 42 --json stream-drill-a.json --assert
	$(GO) run ./cmd/loadgen --streams 1000 --seed 42 --json stream-drill-b.json --assert
	cmp stream-drill-a.json stream-drill-b.json
	@echo "stream-drill: 256-stream loopback soak + byte-identical 1000-stream sim"

# Fleet drill: the cluster control tower. The multi-hop sim throttles
# the relay1-gateway uplink to 5% and the cluster verdict must name
# that hop (node + link) as dominant, with the fair-share SLO alert
# firing exactly once, resolving after the throttle lifts, and an
# alert-triggered pprof pair landing in fleet-profiles/. Then the
# churn storm must fire and resolve the hop-availability alert. The
# drill contract is asserted by Check() inside the binary.
fleet-drill:
	$(GO) run ./cmd/experiments -fig none -fleet -profile-dir fleet-profiles
	@ls fleet-profiles/*.pprof >/dev/null 2>&1 || { echo "fleet-drill: no profile artifacts captured"; exit 1; }
	@echo "fleet-drill: cluster verdicts checked, alert-triggered profiles captured"

# Adapt drill: the convergence contract for the adaptive placement
# controller. The deterministic sim drill starts from a deliberately bad
# config (one compress worker, everything pinned to one socket), lets
# the controller watch the self-diagnosis windows and resize/re-pin the
# elastic pools, and Check() inside the binary asserts convergence to
# within 10% of the hand-tuned config, the tuned config drawing zero
# actions, and the bad config staying visibly slow uncontrolled. Run
# twice with the same seed: the action logs (and the whole result JSON)
# must be byte-identical. The elastic-pool storm tests then replay the
# randomized Grow/Shrink churn against a live loopback pipeline under
# the race detector (exactly-once ledger, no worker leaks, abort never
# wedges mid-retire).
adapt-drill:
	$(GO) run ./cmd/experiments -fig none -adapt -adapt-json adapt-drill-a.json
	$(GO) run ./cmd/experiments -fig none -adapt -adapt-json adapt-drill-b.json
	cmp adapt-drill-a.json adapt-drill-b.json
	$(GO) test -race -count=1 -run 'TestPool|TestElastic|TestRetire|TestControls' ./internal/pipeline/...
	@echo "adapt-drill: byte-identical convergence runs + elastic storm clean under -race"

# Perfbench: the end-to-end benchmark is its own module (perfbench/go.mod,
# replacing numastream with this checkout), so `go build ./...` above
# never compiles it. Vet and test it here against the current API, with
# the same offline module settings perfbench/run.sh uses.
PERFBENCH_ENV = GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
perfbench-check:
	cd perfbench && $(PERFBENCH_ENV) $(GO) vet ./...
	cd perfbench && $(PERFBENCH_ENV) $(GO) test ./...

# The single CI entry point: build, vet, tests, race pass, churn drill,
# report drill, stream drill, fleet drill, adapt drill, perfbench.
check: build vet test race churn-drill report-drill stream-drill fleet-drill adapt-drill perfbench-check

# Human-readable benchmark run over the root suite (the paper figures,
# the loopback pipeline, queues, LZ4).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem

# Machine-readable benchmark run: test2json event stream, one JSON
# object per line, suitable for diffing across PRs (see BENCH_PR4.json
# for the first committed snapshot). BENCH_OUT overrides the file.
BENCH_OUT ?= bench.json
bench-json:
	$(GO) test -run '^$$' -bench=. -benchmem -json > $(BENCH_OUT)

# Benchmark regression gate: re-run only the gated hot-path benchmarks
# and diff them against the committed baseline snapshot. Fails when a
# gated benchmark regresses more than 15% ns/op after host-speed
# normalization. Two defenses keep the gate meaningful on arbitrary CI
# hosts: benchdiff compares best-of-N across the -count samples (the
# minimum is the least-noise estimator — interference only ever slows a
# run down), and the queue spin benchmark calibrates for absolute host
# speed (its fixed, allocation-free work measures the machine, so the
# committed baseline from a faster box still gates a slower one).
# BENCH_BASE selects the baseline (the newest committed BENCH_PR*.json).
BENCH_BASE ?= BENCH_PR8.json
GATED_BENCHMARKS = BenchmarkLoopbackPipeline BenchmarkQueueThroughput
bench-gate:
	$(GO) test -run '^$$' -bench '^(BenchmarkLoopbackPipeline|BenchmarkQueueThroughput)$$' -count=6 -benchmem -json > bench-gate.json
	$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASE) -current bench-gate.json -calibrate BenchmarkQueueThroughput $(GATED_BENCHMARKS)
