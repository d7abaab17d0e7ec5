GO ?= go
# Pinned so CI and laptops run the same checker; bump deliberately.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet staticcheck test test-race chaos cache-check fuzz-smoke loadtest loadtest-smoke overload-chaos ci loc knobs experiments

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

# Deterministic seeds for the chaos suite's equivalence matrices; override
# to widen them (CHAOS_SEEDS="1 2 3 4 5 6 7 8" make chaos).
CHAOS_SEEDS ?= 1 2 3 5

# The fault-injection suite under the race detector: the fault injector's
# own tests, then every test of the one stream-healing ladder and what it
# rests on — resume splices, the breaker, stale-pool redials, backoff,
# replica balancing and failover, the shard merge and topologies — with
# the chaos, 1/2/3-replica and 1/2/4-shard equivalence matrices across
# the seed list.
CHAOS_RUN = Chaos|Resume|Breaker|StreamLost|PoolSurvives|Backoff|Jitter|Replica|Failover|ProbeFailure|Shard|Topology|TestPartition$$
chaos:
	$(GO) test -race -count=1 ./internal/chaos/
	CHAOS_SEEDS="$(CHAOS_SEEDS)" $(GO) test -race -count=1 -run '$(CHAOS_RUN)' \
		. ./internal/wire/ ./internal/plan/ ./internal/sqlgen/ ./internal/viewsvc/

# The caching layer's correctness gate under the race detector: cached and
# uncached materializations must be byte-identical across every strategy
# family, base-table writes must always invalidate, a killed run must never
# leave a partial fragment behind, and both cache packages' unit suites
# must pass.
cache-check:
	$(GO) test $(GOFLAGS) -race -run 'Cache|Invalidation' -count=1 .
	$(GO) test $(GOFLAGS) -race ./internal/plancache/ ./internal/fragcache/

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
# as a typed CodeBadRequest, never a panic, every malformed status frame
# as a typed error on the client side, the tagger's escaper must
# match xml.EscapeText byte for byte, the executor must agree with the
# brute-force reference on every generated query, and /metrics must stay
# conformant exposition under any view or tenant name. The seeds also run
# as plain tests in `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEscaped$$' -fuzztime 10s ./internal/tagger
	$(GO) test -run '^$$' -fuzz '^FuzzExecutorMatchesReference$$' -fuzztime 10s ./internal/sqlexec
	$(GO) test -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime 10s ./internal/obs

ci: vet staticcheck build test-race chaos cache-check fuzz-smoke loadtest-smoke overload-chaos

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

# The configuration surface, counted the way `loc` counts lines: facade
# With* options (non-test root files), wire option constructors, exported
# config fields of wire.Server (besides DB, the database it serves), and
# flag definitions per cmd/ binary.
KNOB_FLAGS = flag\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64)(Var)?\(
knobs:
	@printf '%6d facade With* options\n' $$(ls *.go | grep -v '_test\.go$$' | xargs cat | grep -c '^func With')
	@printf '%6d wire options\n' $$(ls internal/wire/*.go | grep -v '_test\.go$$' | xargs cat | grep -c '^func With')
	@printf '%6d wire.Server config fields\n' $$(awk '/^type Server struct/ { body = 1; next } body && /^}/ { exit } body && /^\t[A-Z][A-Za-z0-9]* / && !/^\tDB / { n++ } END { print n + 0 }' internal/wire/server.go)
	@for d in cmd/*/; do \
		printf '%6d %s flags\n' $$(ls $$d*.go | grep -v '_test\.go$$' | xargs cat | grep -cE '$(KNOB_FLAGS)') $$(basename $$d); \
	done

experiments:
	$(GO) run ./cmd/experiments
