# Developer / CI entry points. `make ci` is what a pipeline should run:
# build, vet, the full test suite under the race detector (the beacon
# drain goroutine, circuit breaker, WAL committer and collector
# shutdown are concurrency hot spots — plain `go test` is not enough),
# and the coverage gate.

GO ?= go

# Build version stamped into qtag_build_info (and probe User-Agents) via
# the linker: git describe when available, "dev" otherwise.
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X qtag/internal/version.Version=$(VERSION)"

# Total statement coverage must not fall below the seed repository's
# baseline. Raise the floor when coverage improves; never lower it.
COVER_FLOOR ?= 82.0
COVER_PROFILE ?= coverage.out

# Pinned linter versions: `go run pkg@version` gives hermetic, lockfile-
# free pinning — bump deliberately, never track latest.
STATICCHECK ?= honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

# Where bench-gate writes the fresh benchmark run it compares against
# the committed BENCH_PR10.json baseline.
BENCH_FRESH ?= bench-fresh.json

# The allocation gate: the codec/key benchmarks and the simulator's
# per-impression benchmark, whose allocs/op are deterministic enough to
# gate exactly (JSON and map-dominated benches vary across Go versions
# and are deliberately excluded), the packages they live in, the
# committed baseline, and where the fresh run lands.
ALLOC_BENCH ?= BenchmarkBinaryCodec|BenchmarkEventKey|BenchmarkImpression
ALLOC_PKGS ?= ./internal/beacon ./internal/campaign
ALLOC_BASELINE ?= ALLOC_BASELINE.txt
ALLOC_FRESH ?= alloc-fresh.txt

.PHONY: all build vet test race bench cover chaos cluster-chaos trace-chaos overload-chaos fraud-chaos sim-oracle soak fuzz-smoke lint bench-gate alloc-gate alloc-baseline perfbench-check ci

all: ci

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Ingest benchmarks: microbenchmarks for the sharded store, the WAL
# group committer and the binary beacon codec, then the end-to-end
# shard-scaling ladder (full HTTP server, WAL on the request path,
# fsync=always, JSON and binary rungs) written to BENCH_PR10.json.
bench:
	$(GO) test -run='^$$' -bench='BenchmarkStore|BenchmarkWALAppend|BenchmarkBinaryCodec|BenchmarkEventKey' -benchmem ./internal/beacon
	$(GO) run ./cmd/qtag-stress -load -workers 32 -events 8000 \
		-group-commit-max-wait 500us -bench-out BENCH_PR10.json

# Crash-safety sweep: the WAL, the crash-point harness, and the
# durability layer's torn-write / page-cache-loss / bit-rot / ENOSPC
# recovery tests, under the race detector.
chaos:
	$(GO) test -race -run 'Crash|Torn|Quarantine|ENOSPC|Snapshot|Recover|Durable|Flip' \
		./internal/wal/... ./internal/faults/... ./internal/beacon/...

# Cluster chaos: a 3-node in-process cluster (real HTTP servers, real
# WALs, real hint journals) through the whole-node kill/restart sweep,
# partition heal, federated degradation, and fault-injected forwarding
# suites — all under the race detector. Proves the cluster ack
# contract: acked-by-any-live-node ⊆ recovered-cluster-wide, zero
# duplicates, including hinted-handoff replay.
cluster-chaos:
	$(GO) test -race -count=1 -run 'TestCluster|TestForwarding|TestHintLog' \
		./internal/cluster/...

# Trace-propagation chaos: the same 3-node harness asserts every acked
# beacon's distributed trace is ONE connected tree — no orphan spans, no
# duplicate span IDs, a store.apply leaf — across retry storms,
# handoff-then-drain, and same-address restarts, under the race
# detector. Part of `make ci`: tracing that silently drops context under
# faults is worse than no tracing.
trace-chaos:
	$(GO) test -race -count=1 -run 'TestTracePropagation' \
		./internal/cluster/...

# Overload chaos: the 3-node harness under a 10× concurrency ramp with
# concurrent partition-heal drain storms and /report + /debug hammers,
# under the race detector. Proves the admission contract: zero
# acked-beacon loss, goodput held within a fixed band of baseline,
# low-priority classes shed first, and every node back to /readyz 200
# within a bounded window once the load subsides.
overload-chaos:
	$(GO) test -race -count=1 -run 'TestOverload' ./internal/cluster/...

# Fraud-detection chaos: the adversarial actor scenarios through the
# full HTTP ingest path, scored against the lifecycle-tracer oracle
# with per-scenario precision/recall floors; detector equivalence
# (order-insensitive, concurrent, WAL-crash-recovery) and the
# mid-campaign server restart that must not move a single score — all
# under the race detector. See DESIGN.md §15.
fraud-chaos:
	$(GO) test -race -count=1 -run 'TestFraud|TestDetect|TestTornWALTail|Actor|TestFaultDuplicate' \
		./internal/stress/... ./internal/detect/... ./internal/campaign/...

# Compositor oracle: the campaign simulation on the counted compositor
# (paint frames credited in closed form on the virtual clock) against
# the per-frame reference compositor over 500 seeds — beacons, campaign
# results, impression records and lifecycle traces must be identical.
# Tier-1 `go test` runs the same test over 20 seeds. See DESIGN.md §17.
sim-oracle:
	$(GO) test -count=1 -run '^TestCountedCompositorMatchesPerFrame$$' ./internal/campaign -oracle-seeds=500

# Concurrency soak: the sharded store + group-commit WAL driven through
# the full HTTP server by concurrent clients, with store/WAL/counter
# reconciliation, plus the sharded-vs-seed and group-commit-vs-per-record
# equivalence property tests — all under the race detector.
soak:
	$(GO) test -race -count=1 -run 'Soak|Equivalence|ShardsRounding' \
		./internal/beacon/... ./internal/stress/... ./internal/aggregate/...

# Ten seconds of fuzzing each on the WAL record codec, the ingest
# handler, and the fraud detector's observe path — enough to catch a
# framing, checksum, batch-atomicity, or score-bound regression without
# stalling the pipeline. (One -fuzz pattern per invocation: go test
# rejects fuzzing multiple targets at once.)
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzWALRecord -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzHandleEvents -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzBinaryCodec -fuzztime=10s ./internal/beacon
	$(GO) test -run='^$$' -fuzz=FuzzDetectObserve -fuzztime=10s ./internal/detect

cover:
	$(GO) test -coverprofile=$(COVER_PROFILE) ./...
	@total=$$($(GO) tool cover -func=$(COVER_PROFILE) | awk '/^total:/ { gsub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor: $(COVER_FLOOR)%)"; \
	awk -v got="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { exit (got + 0 < floor + 0) ? 1 : 0 }' \
		|| { echo "FAIL: coverage $$total% is below the floor $(COVER_FLOOR)%"; exit 1; }

# Static analysis + known-vulnerability scan, both version-pinned above.
# `go run pkg@version` downloads on first use (cached afterwards), so an
# air-gapped checkout that has never fetched the tools skips with a
# warning instead of failing on the download — CI always has the network
# and therefore always enforces.
lint:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		echo "staticcheck:"; $(GO) run $(STATICCHECK) ./...; \
	else \
		echo "WARN: skipping staticcheck ($(STATICCHECK) not fetchable — offline?)"; \
	fi
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		echo "govulncheck:"; $(GO) run $(GOVULNCHECK) ./...; \
	else \
		echo "WARN: skipping govulncheck ($(GOVULNCHECK) not fetchable — offline?)"; \
	fi

# Throughput regression gate: re-run the shard-scaling benchmark ladder
# and fail if any sampling-off non-overload rung lost more than 20%
# events/sec against the committed BENCH_PR10.json baseline (traced and
# overload rungs are reported, not gated). Benchmarks are noisy on
# shared runners, so this runs as a scheduled/manual CI job, not per-PR;
# the committed baseline is only ever updated deliberately (make bench).
bench-gate:
	$(GO) run ./cmd/qtag-stress -load -workers 32 -events 8000 \
		-group-commit-max-wait 500us -bench-out $(BENCH_FRESH)
	$(GO) run ./scripts/benchgate.go -baseline BENCH_PR10.json -fresh $(BENCH_FRESH)

# Allocation regression gate — blocking, per-PR. Unlike nanoseconds,
# allocs/op is deterministic (for a given Go version), so a fixed
# -benchtime=1000x run is cheap and exact: any benchmark whose allocs/op
# rises above the committed ALLOC_BASELINE.txt fails the build. This is
# what keeps the zero-allocation decode path at zero.
alloc-gate:
	$(GO) test -run='^$$' -bench='$(ALLOC_BENCH)' -benchmem -benchtime=1000x -count=1 \
		$(ALLOC_PKGS) > $(ALLOC_FRESH) || { cat $(ALLOC_FRESH); exit 1; }
	@cat $(ALLOC_FRESH)
	$(GO) run ./scripts/benchgate.go -allocs -baseline $(ALLOC_BASELINE) -fresh $(ALLOC_FRESH)

# Deliberately refresh the committed allocation baseline (review the
# diff before committing — an unexplained increase is a regression, not
# a new baseline).
alloc-baseline:
	$(GO) test -run='^$$' -bench='$(ALLOC_BENCH)' -benchmem -benchtime=1000x -count=1 \
		$(ALLOC_PKGS) > $(ALLOC_BASELINE)
	@cat $(ALLOC_BASELINE)

# The repository benchmark (perfbench/) is a nested Go module, so the
# root `go build ./...` never compiles it: vet and test it on its own,
# so a change that removes a symbol the benchmark uses fails here
# instead of at benchmark time.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The blocking pipeline: correctness, analysis, coverage, crash-safety,
# trace propagation, the compositor oracle, allocation regressions and
# the benchmark module's build. soak and fuzz-smoke run as a separate
# non-blocking CI job (see .github/workflows/ci.yml); bench-gate is
# scheduled/manual only.
ci: build vet lint race cover chaos trace-chaos sim-oracle alloc-gate perfbench-check
