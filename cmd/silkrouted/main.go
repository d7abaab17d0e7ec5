// Command silkrouted is the long-running, multi-tenant XML view service:
// the paper's middleware as a daemon. It registers many named RXL views —
// from a config directory and/or an admin endpoint — and serves their
// materializations to many concurrent clients over HTTP, streaming each
// document as the tagger emits it (chunked transfer, no full-document
// buffering).
//
// Views come from "<dir>/<name>.rxl" files (-views) and, with -admin, from
// PUT /views/{name} with the RXL source as the body. A view file that does
// not parse degrades that one name to 503 — with a file:line:column
// diagnostic — while the rest of the registry serves.
//
// The data plane:
//
//	GET /views                  list registered views (JSON)
//	GET /views/{name}           stream the XML document (?strategy= overrides)
//	GET /views/{name}/explain   the plan and SQL, without executing
//	GET /sessions               live streams (JSON): tenant, remaining budget, bytes
//	GET /tenants                per-tenant quota state (JSON)
//	GET /metrics, /healthz      Prometheus metrics and liveness
//	PUT/DELETE /views/{name}    register/remove a view (-admin only)
//
// Admission control refuses work beyond -max-concurrent with 503 +
// Retry-After instead of queueing; per-tenant quotas (-tenant-rate,
// -tenant-burst, -tenant-concurrent, -tenants, -api-keys) answer 429
// before a tenant's burst can reach the shared slots. Requests identify
// their tenant with a Silkroute-Tenant header or an API key, and may
// declare a deadline budget with Silkroute-Budget ("250ms"): the server
// serves within it and propagates the remainder to its backends, so work
// the client can no longer use is abandoned everywhere. With -serve-stale
// (requires -fragment-cache, -connect and -breaker), a view whose backend
// is entirely down is answered from its last complete cached document,
// flagged with Silkroute-Stale headers. Views load from -views at start;
// with -admin, PUT/DELETE /views/{name} change them at runtime. SIGTERM
// drains gracefully: in-flight streams finish (never truncated), new
// requests are refused.
//
// The backend is the built-in TPC-H generator (-scale/-seed), a CSV
// directory (-data), or remote silkroute -serve databases (-connect, a
// topology string: one address, a comma-separated replica group, or
// ";"-separated shards of replica groups) — dialed through the facade's
// one Dial(topology) entry point, so every connection policy flag maps
// onto one option list. The policy flags also apply to views bound to
// their own backend by a "<name>.topology" sidecar file, so they are
// accepted with a local default backend too. -resume N heals a tuple stream
// that dies mid-flight: up to N reopens after its last delivered sort key
// (on a replicated backend, each on a replica other than the one it died
// on; on a sharded one, per shard under the merge), then one reopen from
// the top that skips the delivered rows, then a typed failure — the
// document is byte-identical or the request fails closed.
//
// Usage:
//
//	silkrouted -addr :8344 -builtin                      # built-in TPC-H views
//	silkrouted -addr :8344 -views ./views -data ./tpch   # view files over CSVs
//	silkrouted -connect db:7070 -builtin                 # remote backend
//	silkrouted -connect a:7070,b:7070 -resume 3 -builtin # replica set
//	silkrouted -connect "s0=a:7070;s1=b:7070" -builtin   # scatter-gather
//	curl -N localhost:8344/views/q1
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"silkroute"
	"silkroute/internal/obs"
	"silkroute/internal/rxl"
	"silkroute/internal/viewsvc"
)

func main() {
	addr := flag.String("addr", ":8344", "HTTP listen address")
	viewsDir := flag.String("views", "", "directory of <name>.rxl view definitions")
	builtin := flag.Bool("builtin", false, "register the paper's built-in views (q1, q2, fragment)")
	admin := flag.Bool("admin", false, "enable PUT/DELETE /views/{name} registration")
	strategy := flag.String("strategy", "greedy", "default plan strategy for registered views")
	scale := flag.Float64("scale", 0.001, "TPC-H scale factor when generating data")
	seed := flag.Int64("seed", 42, "TPC-H generator seed")
	data := flag.String("data", "", "directory of <Relation>.csv files (instead of generating)")
	connect := flag.String("connect", "", `evaluate against remote silkroute -serve databases: "a:7070", replicas "a:7070,b:7070", or shards "s0=a,b;s1=c,d"`)
	maxConcurrent := flag.Int("max-concurrent", viewsvc.DefaultMaxConcurrent, "concurrent materializations admitted; beyond it 503 + Retry-After")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline, admission through last byte (0 = none)")
	maxBytes := flag.Int64("max-bytes", 0, "abort responses past this many bytes, fail-closed (0 = none)")
	tenantRate := flag.Float64("tenant-rate", 0, "default per-tenant sustained requests/second (0 = unlimited)")
	tenantBurst := flag.Int("tenant-burst", 0, "default per-tenant burst depth for -tenant-rate")
	tenantConcurrent := flag.Int("tenant-concurrent", 0, "default per-tenant concurrent-stream quota (0 = global limit only)")
	tenants := flag.String("tenants", "", `per-tenant limit overrides, "name=rate:burst:concurrent,..." (empty field = unlimited)`)
	apiKeys := flag.String("api-keys", "", `API key to tenant bindings, "key=tenant,..." (keys outrank the Silkroute-Tenant header)`)
	serveStale := flag.Bool("serve-stale", false, "serve the last complete cached document (flagged Silkroute-Stale) when the backend is entirely down; requires -fragment-cache, -connect and -breaker")
	grace := flag.Duration("grace", 30*time.Second, "drain grace after SIGTERM before force-closing streams")
	noReduce := flag.Bool("no-reduce", false, "disable view-tree reduction")
	parallelism := flag.Int("parallelism", 0, "concurrent partition queries per request (0 = one per CPU)")
	planCache := flag.Bool("plan-cache", true, "memoize compiled plans across requests")
	fragCache := flag.Int64("fragment-cache", 0, "cache materialized XML under this byte budget (0 = off, -1 = unbounded)")
	resume := flag.Int("resume", 0, "reopen a died tuple stream up to N times at its frontier, then once from the top (remote only)")
	breakerThreshold := flag.Int("breaker", 0, "open a circuit breaker after N consecutive transport failures (remote only)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing (0 = 1s default)")
	flag.Parse()

	strat, err := silkroute.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	tenantLimits, err := parseTenants(*tenants)
	if err != nil {
		fatal(err)
	}
	keyTable, err := parseAPIKeys(*apiKeys)
	if err != nil {
		fatal(err)
	}
	if err := checkServeStale(*serveStale, *fragCache, *connect, *breakerThreshold); err != nil {
		fatal(err)
	}

	// One option list configures everything: the backend connection
	// (Dial), every registered view, and admin-registered views — the
	// facade's unified option set is what lets the server config map 1:1.
	opts := []silkroute.Option{
		silkroute.WithStrategy(strat),
		silkroute.WithReduce(!*noReduce),
		silkroute.WithParallelism(*parallelism),
	}
	if *planCache {
		opts = append(opts, silkroute.WithPlanCache())
	}
	if *fragCache != 0 {
		opts = append(opts, silkroute.WithFragmentCache(*fragCache))
	}
	if *resume > 0 {
		opts = append(opts, silkroute.WithResume(*resume))
	}
	if *breakerThreshold > 0 {
		opts = append(opts, silkroute.WithBreaker(*breakerThreshold, *breakerCooldown))
	}

	// The daemon always serves /metrics, so enable the sink before the
	// backend dial — construction-time gauges (shards, replicas) record
	// as the topology is built.
	obs.Enable()

	// Remote shapes declare a topology and share the rest of the flow; the
	// source description rides along so sidecar-topology views (see
	// viewsvc.LoadDir) can compile even when the default backend is local.
	opts = append(opts, silkroute.WithSource(silkroute.TPCHSourceDescription()))
	var backend silkroute.Backend
	if *connect != "" {
		topo, err := silkroute.ParseTopology(*connect)
		if err != nil {
			fatal(err)
		}
		r, err := silkroute.Dial(topo, opts...)
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		backend = r
	} else {
		db := silkroute.OpenTPCH(scaleFor(*data, *scale), *seed)
		if *data != "" {
			if err := db.LoadCSVDir(*data); err != nil {
				fatal(err)
			}
		}
		backend = db
	}

	reg := viewsvc.NewRegistry()
	if *builtin {
		for name, src := range map[string]string{
			"q1":       rxl.Query1Source,
			"q2":       rxl.Query2Source,
			"fragment": rxl.FragmentSource,
		} {
			h, err := viewsvc.Compile(name, backend, src, opts...)
			if err != nil {
				fatal(err)
			}
			reg.Register(name, h, src, "builtin")
		}
	}
	if *viewsDir != "" {
		ok, broken, err := reg.LoadDir(*viewsDir, backend, opts...)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "silkrouted: loaded %d view(s) from %s", ok, *viewsDir)
		if broken > 0 {
			fmt.Fprintf(os.Stderr, " (%d broken — serving 503 with diagnostics)", broken)
		}
		fmt.Fprintln(os.Stderr)
	}
	if len(reg.Names()) == 0 && !*admin {
		fatal(fmt.Errorf("no views registered: pass -views DIR, -builtin, or -admin"))
	}

	srv := viewsvc.New(viewsvc.Config{
		Registry: reg,
		Limits: viewsvc.Limits{
			MaxConcurrent:    *maxConcurrent,
			RequestTimeout:   *requestTimeout,
			MaxResponseBytes: *maxBytes,
		},
		Admin:   *admin,
		Backend: backend,
		Options: opts,
		Tenants: tenantLimits,
		TenantDefaults: viewsvc.TenantLimits{
			Rate:          *tenantRate,
			Burst:         *tenantBurst,
			MaxConcurrent: *tenantConcurrent,
		},
		APIKeys:    keyTable,
		ServeStale: *serveStale,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "silkrouted: serving %d view(s) on http://%s/views\n", len(reg.Names()), l.Addr())
	if err := srv.ServeContext(ctx, l, *grace); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "silkrouted: drained cleanly")
}

// parseTenants parses "name=rate:burst:concurrent,..." into per-tenant
// limit overrides. Any of the three fields may be empty (that dimension
// stays unlimited); trailing fields may be omitted. A field must be a
// number in full, and a fourth field is refused.
func parseTenants(spec string) (map[string]viewsvc.TenantLimits, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]viewsvc.TenantLimits)
	for _, item := range strings.Split(spec, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(item), "=")
		fields := strings.Split(rest, ":")
		if !ok || name == "" || len(fields) > 3 {
			return nil, fmt.Errorf(`-tenants: %q is not "name=rate:burst:concurrent"`, item)
		}
		var l viewsvc.TenantLimits
		for i, f := range fields {
			if f == "" {
				continue
			}
			var err error
			switch i {
			case 0:
				l.Rate, err = strconv.ParseFloat(f, 64)
			case 1:
				l.Burst, err = strconv.Atoi(f)
			case 2:
				l.MaxConcurrent, err = strconv.Atoi(f)
			}
			if err != nil {
				return nil, fmt.Errorf("-tenants: tenant %s: bad field %q: %w", name, f, err)
			}
		}
		out[name] = l
	}
	return out, nil
}

// parseAPIKeys parses "key=tenant,..." into the API-key table.
func parseAPIKeys(spec string) (map[string]string, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]string)
	for _, item := range strings.Split(spec, ",") {
		key, tenant, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok || key == "" || tenant == "" {
			return nil, fmt.Errorf(`-api-keys: %q is not "key=tenant"`, item)
		}
		out[key] = tenant
	}
	return out, nil
}

// checkServeStale refuses a -serve-stale that could never serve: it
// answers from the fragment cache, and only when the backend is reported
// unhealthy, which only an open remote circuit breaker does.
func checkServeStale(serveStale bool, fragCache int64, connect string, breaker int) error {
	switch {
	case !serveStale:
		return nil
	case fragCache == 0:
		return fmt.Errorf("-serve-stale needs a cached document to serve: pass -fragment-cache BYTES")
	case connect == "" || breaker <= 0:
		return fmt.Errorf("-serve-stale engages only when a remote breaker opens: pass -connect and -breaker N")
	}
	return nil
}

// scaleFor returns the generator scale: zero (empty tables) when a CSV
// directory supplies the data.
func scaleFor(data string, scale float64) float64 {
	if data != "" {
		return 0
	}
	return scale
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "silkrouted:", err)
	os.Exit(1)
}
