GO ?= go
# Pinned so CI and laptops run the same checker; bump deliberately.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet staticcheck test test-race chaos replica-chaos shard-chaos cache-check fuzz-smoke bench-smoke bench-json loadtest loadtest-smoke overload-chaos ci loc experiments

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Runs the pinned staticcheck via `go run` (no global install). The
# -version probe separates "tool not fetchable" (offline, no module cache:
# warn and skip) from "tool ran and found problems" (fail).
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

test:
	$(GO) test ./...

# The race detector multiplies runtime; -short skips the exhaustive plan
# sweeps while still covering every concurrent code path.
test-race:
	$(GO) test -race -short ./...

# Deterministic seeds for the chaos suite's equivalence sweep; override to
# widen the matrix (CHAOS_SEEDS="1 2 3 4 5 6 7 8" make chaos).
CHAOS_SEEDS ?= 1 2 3 5

# The fault-injection suite under the race detector: every resilience test
# (resume, breaker, stale-pool, chaos equivalence) across a deterministic
# seed matrix. Separate from test-race so a resilience regression is
# identifiable at a glance.
chaos:
	$(GO) test -race ./internal/chaos/
	CHAOS_SEEDS="$(CHAOS_SEEDS)" $(GO) test -race \
		-run 'Chaos|Resume|Breaker|StreamLost|PoolSurvives|Backoff|Jitter' \
		. ./internal/wire/ ./internal/plan/ ./internal/sqlgen/

# The replication suite under the race detector: balancer picks, mid-stream
# cross-replica failover with byte-exact splices, hedged opens, the
# half-open probe race, per-replica chaos specs, and the 1/2/3-replica ×
# chaos-seed equivalence matrix with one replica hard-killed mid-run.
replica-chaos:
	CHAOS_SEEDS="$(CHAOS_SEEDS)" $(GO) test -race -count=1 \
		-run 'Replica|Failover|NoHealthy|HalfOpen|Hedge|FailsClosed|ProbeFailure|MultiSpec|SpecString' \
		. ./internal/wire/ ./internal/chaos/

# The sharding suite under the race detector: topology parsing, hash
# partitioning, the k-way scatter-gather merge (global order, cross-shard
# tie invariance, NULL keys), grid chaos specs, and the 1/2/4-shard ×
# chaos-seed equivalence matrix with one shard replica hard-killed so the
# per-shard resume + failover ladder heals underneath the merge.
shard-chaos:
	CHAOS_SEEDS="$(CHAOS_SEEDS)" $(GO) test -race -count=1 \
		-run 'Shard|Topology|Scatter|GridSpec|Merge|Partition' \
		. ./internal/wire/ ./internal/chaos/ ./internal/viewsvc/

# The caching layer's correctness gate under the race detector: cached and
# uncached materializations must be byte-identical across every strategy
# family, base-table writes must always invalidate, a killed run must never
# leave a partial fragment behind, and both cache packages' unit suites
# must pass.
cache-check:
	$(GO) test $(GOFLAGS) -race -run 'Cache|Invalidation' -count=1 .
	$(GO) test $(GOFLAGS) -race ./internal/plancache/ ./internal/fragcache/

# One iteration of the parallel-execution grid: proves the benchmark and
# the worker pool still run, without paying for a full measurement.
# The captured output doubles as the CI artifact (bench-smoke.txt).
bench-smoke:
	@$(GO) test $(GOFLAGS) -run '^$$' -bench ParallelExecute -benchtime 1x ./internal/plan > bench-smoke.txt 2>&1; \
		status=$$?; cat bench-smoke.txt; exit $$status

# The core benchmarks (cache speedup, parallel execution, hash join, wire
# transfer, replica failover, sharded scatter-gather) in
# machine-readable form: one pass each, three samples, parsed by
# cmd/benchjson into BENCH_9.json — committed at the repo root and archived
# by CI so later PRs can diff ns/op, B/op, and allocs/op without scraping
# logs.
bench-json:
	@$(GO) test $(GOFLAGS) -run '^$$' \
		-bench 'MaterializeCached|WireTransfer|ReplicaFailover|ShardedMaterialize' \
		-benchtime 1x -count 3 . > bench-raw.txt 2>&1 && \
	$(GO) test $(GOFLAGS) -run '^$$' -bench ParallelExecute -benchtime 1x -count 3 \
		./internal/plan >> bench-raw.txt 2>&1 && \
	$(GO) test $(GOFLAGS) -run '^$$' -bench HashJoin -benchtime 1x -count 3 \
		./internal/sqlexec >> bench-raw.txt 2>&1; \
	status=$$?; cat bench-raw.txt; \
	if [ $$status -eq 0 ]; then $(GO) run ./cmd/benchjson -o BENCH_9.json bench-raw.txt; fi; \
	rm -f bench-raw.txt; exit $$status

# The view-service load test: N clients × M views against an in-process
# silkrouted, every response byte-compared to a direct Materialize, plus
# the saturation (503 + Retry-After) and SIGTERM-drain (zero truncated
# documents) assertions. The JSON summary carries the p50/p99 numbers.
loadtest:
	$(GO) run ./cmd/loadgen -clients 32 -rounds 4 -out loadtest.json

# The same harness, small enough to run under the race detector in CI:
# equivalence, saturation, and drain are all still asserted, and the p99
# summary lands in loadtest-smoke.json for the artifact upload.
loadtest-smoke:
	$(GO) run -race ./cmd/loadgen -clients 8 -rounds 2 -out loadtest-smoke.json

# The overload/degradation gate under the race detector: offered load at
# twice the admitted cap split across two tenants (one inside its quota,
# one hammering far past it) over a replica set with one replica
# chaos-killed mid-stream. Asserts the in-quota tenant sees only
# byte-identical documents with bounded p99, the abusive tenant collects
# 429 + Retry-After, spent-budget requests are refused without a single
# backend query, and all-replicas-down requests are served complete stale
# documents flagged with Silkroute-Stale headers.
overload-chaos:
	$(GO) run -race ./cmd/loadgen -overload -out overload-chaos.json

# Ten seconds of coverage-guided fuzzing per target (go test -fuzz takes
# one target per run): every malformed wire request header must come back
# as a typed CodeBadRequest, never a panic, and the tagger's escaper must
# match xml.EscapeText byte for byte. The seeds also run as plain tests in
# `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEscaped$$' -fuzztime 10s ./internal/tagger

ci: vet staticcheck build test-race chaos replica-chaos shard-chaos cache-check fuzz-smoke loadtest-smoke overload-chaos bench-smoke bench-json

# Non-test, non-blank, non-comment Go lines per package — the figure the
# simplification PRs report shrinkage in (a line inside a /* */ block or
# starting with // is a comment; trailing comments stay with their code).
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	while read -r pkg files; do \
		[ -n "$$files" ] || continue; \
		cat $$files | awk -v pkg="$$pkg" ' \
			block { if (/\*\//) block = 0; next } \
			/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
			/^[ \t]*\/\*/ { if (!/\*\//) block = 1; next } \
			{ n++ } \
			END { printf "%6d %s\n", n, pkg }'; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

experiments:
	$(GO) run ./cmd/experiments
