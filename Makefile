GO ?= go
# Pinned so CI and laptops run the same checker; bump deliberately.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all fmt build vet staticcheck test test-race chaos fuzz-smoke bench-smoke ci allocs loc knobs experiments

all: build

build:
	$(GO) build ./...

# Fails on any file gofmt would rewrite, listing them.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

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
	$(GO) test -count=1 ./...

# The race detector multiplies runtime; -short skips the exhaustive plan
# sweeps while still covering every concurrent code path. It also carries
# the caching layer's correctness gate — the root Cache|Invalidation|PlanMemo
# tests (TestCacheRemoteEpochProbes among them), fragcache, and the
# freshness signal's own tests, engine's TestStatsEpochSumsTableVersions
# and plan's TestViewRelationsCoverEveryPlan — and the view service's load,
# drain and overload tests (internal/viewsvc); none of them skips under
# -short.
test-race:
	$(GO) test -race -short -count=1 ./...

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

# Ten seconds of coverage-guided fuzzing per target (go test -fuzz takes
# one target per run): every malformed wire request header must come back
# as a typed CodeBadRequest, never a panic, every malformed status frame
# as a typed error on the client side, a row frame must decode whole
# exactly when value-by-value decoding takes it in whole rows within the
# batch bound, the order-preserving key encoding must order any two rows
# as value.Compare does, floats included, the tagger's escaper must match
# xml.EscapeText byte for byte, the executor must agree with the
# brute-force reference on every generated query over generated rows,
# any SQL that parses must print to SQL that parses and prints the same,
# /metrics must stay conformant exposition under any view or tenant name,
# a -connect topology string must parse or fail with a positioned
# error, never panic, and round-trip through its String form, and an RXL
# source must parse or fail with a positioned *rxl.Error, and build a
# TPC-H view tree or fail with an error once parsed, never panic. The
# seeds also run as plain tests in `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRows$$' -fuzztime 10s ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime 10s ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzAppendEscaped$$' -fuzztime 10s ./internal/tagger
	$(GO) test -run '^$$' -fuzz '^FuzzExecutorMatchesReference$$' -fuzztime 10s ./internal/sqlexec
	$(GO) test -run '^$$' -fuzz '^FuzzPrintParse$$' -fuzztime 10s ./internal/sqlparse
	$(GO) test -run '^$$' -fuzz '^FuzzExposition$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzParseRXL$$' -fuzztime 10s ./internal/rxl

# Every benchmark once, so each keeps running and not only compiling.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# test runs tier-1 in full: the allocation and byte gates, the plan sweeps
# and the full tagger differential skip under test-race's -short. allocs
# prints the allocation figures; loc and knobs cannot fail; they print the
# code size and configuration surface into every CI log.
ci: fmt vet staticcheck build test test-race chaos fuzz-smoke bench-smoke allocs loc knobs

# The allocation gates, each printing its measured figure beside its
# constant: allocations and MB per document (TestAllocsPerDocument),
# allocations per greedy search of each Fig. 18 view (TestGreedyAllocs),
# per view-tree build of Q1 and Q2 (TestBuildAllocs) and per tagger
# document (TestWriteXMLAllocsIndependentOfRows). It fails when a gate
# does, and then prints the tests' whole output.
ALLOC_TESTS = ^(TestAllocsPerDocument|TestGreedyAllocs|TestBuildAllocs|TestWriteXMLAllocsIndependentOfRows)$$
allocs:
	@out=$$($(GO) test -count=1 -v -run '$(ALLOC_TESTS)' . ./internal/plan ./internal/viewtree ./internal/tagger 2>&1); rc=$$?; \
	if [ $$rc -ne 0 ]; then echo "$$out"; else echo "$$out" | grep -E '^=== RUN.*/|per document|allocates'; fi; exit $$rc

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
# config fields of wire.Server (besides DB, the database it serves), the
# view service's exported config fields (viewsvc.Config, Limits,
# TenantLimits and Hooks), and flag definitions per cmd/ binary.
KNOB_FLAGS = flag\.(Bool|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64)(Var)?\(
knobs:
	@printf '%6d facade With* options\n' $$(ls *.go | grep -v '_test\.go$$' | xargs cat | grep -c '^func With')
	@printf '%6d wire options\n' $$(ls internal/wire/*.go | grep -v '_test\.go$$' | xargs cat | grep -c '^func With')
	@printf '%6d wire.Server config fields\n' $$(awk '/^type Server struct/ { body = 1; next } body && /^}/ { exit } body && /^\t[A-Z][A-Za-z0-9]* / && !/^\tDB / { n++ } END { print n + 0 }' internal/wire/server.go)
	@printf '%6d viewsvc config fields\n' $$(ls internal/viewsvc/*.go | grep -v '_test\.go$$' | xargs awk '/^type (Config|Limits|TenantLimits|Hooks) struct/ { body = 1; next } body && /^}/ { body = 0 } body && /^\t[A-Z][A-Za-z0-9]* / { n++ } END { print n + 0 }')
	@for d in cmd/*/; do \
		printf '%6d %s flags\n' $$(ls $$d*.go | grep -v '_test\.go$$' | xargs cat | grep -cE '$(KNOB_FLAGS)') $$(basename $$d); \
	done

experiments:
	$(GO) run ./cmd/experiments
