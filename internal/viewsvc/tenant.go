package viewsvc

// Per-tenant overload control. One greedy consumer must not be able to
// starve every other tenant of the view service: each tenant identity gets
// its own token-bucket rate limit and a concurrency quota carved out of the
// server-wide MaxConcurrent, both enforced *before* the global admission
// semaphore. A tenant over its own quota answers 429 (its problem); a
// server past MaxConcurrent answers 503 (everyone's problem) — the status
// split is what lets a well-behaved client distinguish "back off, you" from
// "back off, everyone".

import (
	"sort"
	"sync"
	"time"
)

// DefaultTenant is the identity assigned to requests that carry no tenant
// header and no recognized API key.
const DefaultTenant = "default"

// TenantLimits bounds one tenant's share of the service. The zero value of
// each field disables that dimension (unlimited).
type TenantLimits struct {
	// Rate is the sustained request rate in requests/second replenishing
	// the tenant's token bucket. <= 0 means unlimited rate.
	Rate float64
	// Burst is the bucket depth: how many requests may arrive back to back
	// before the rate gates. <= 0 with Rate set means a depth of 1.
	Burst int
	// MaxConcurrent caps the tenant's simultaneously streaming responses —
	// its carve-out of the server-wide Limits.MaxConcurrent. <= 0 means no
	// per-tenant concurrency cap (the global semaphore still applies).
	MaxConcurrent int
}

func (l TenantLimits) burst() float64 {
	if l.Burst > 0 {
		return float64(l.Burst)
	}
	return 1
}

// TenantState is one tenant's live quota picture, for the admin endpoint.
type TenantState struct {
	Tenant        string  `json:"tenant"`
	Rate          float64 `json:"rate,omitempty"`
	Burst         int     `json:"burst,omitempty"`
	MaxConcurrent int     `json:"max_concurrent,omitempty"`
	// Tokens is the bucket's current depth (requests admittable right now
	// before the rate gates).
	Tokens float64 `json:"tokens"`
	// InFlight is the tenant's currently streaming responses.
	InFlight int `json:"in_flight"`
	// RejectedRate / RejectedConcurrency count 429s by cause over the
	// process lifetime.
	RejectedRate        int64 `json:"rejected_rate"`
	RejectedConcurrency int64 `json:"rejected_concurrency"`
}

// tenant is one identity's live accounting: a token bucket refilled by
// wall clock under its own mutex, plus an in-use concurrency counter.
type tenant struct {
	name   string
	limits TenantLimits

	mu       sync.Mutex
	tokens   float64
	lastFill time.Time
	inUse    int
	rejRate  int64
	rejConc  int64
}

// admit runs the tenant's own admission checks. It returns ok=true with
// the concurrency slot taken (the caller MUST call release exactly once),
// or ok=false with the 429 cause and a Retry-After hint: for a drained
// bucket the hint is exact — the time until the next token exists — and
// for a full concurrency quota it is zero, letting the caller derive an
// estimate from observed session drain instead.
func (t *tenant) admit(now time.Time) (ok bool, retryAfter time.Duration, cause string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limits.Rate > 0 {
		t.refill(now)
		if t.tokens < 1 {
			t.rejRate++
			need := (1 - t.tokens) / t.limits.Rate
			return false, time.Duration(need * float64(time.Second)), "rate"
		}
	}
	if t.limits.MaxConcurrent > 0 && t.inUse >= t.limits.MaxConcurrent {
		t.rejConc++
		return false, 0, "concurrency"
	}
	if t.limits.Rate > 0 {
		t.tokens--
	}
	t.inUse++
	return true, 0, ""
}

// refill tops the bucket up for the wall clock elapsed since the last
// fill. Caller holds t.mu.
func (t *tenant) refill(now time.Time) {
	if t.lastFill.IsZero() {
		t.tokens = t.limits.burst()
		t.lastFill = now
		return
	}
	elapsed := now.Sub(t.lastFill).Seconds()
	if elapsed <= 0 {
		return
	}
	t.tokens += elapsed * t.limits.Rate
	if max := t.limits.burst(); t.tokens > max {
		t.tokens = max
	}
	t.lastFill = now
}

// release returns the concurrency slot taken by a successful admit.
func (t *tenant) release() {
	t.mu.Lock()
	t.inUse--
	t.mu.Unlock()
}

// state snapshots the tenant for the admin endpoint.
func (t *tenant) state(now time.Time) TenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.limits.Rate > 0 {
		t.refill(now)
	}
	return TenantState{
		Tenant:              t.name,
		Rate:                t.limits.Rate,
		Burst:               t.limits.Burst,
		MaxConcurrent:       t.limits.MaxConcurrent,
		Tokens:              t.tokens,
		InFlight:            t.inUse,
		RejectedRate:        t.rejRate,
		RejectedConcurrency: t.rejConc,
	}
}

// maxTenants caps the tenant names a server tracks besides the declared
// ones. A name arrives in a request header, so without the cap every new
// value would keep a /tenants entry and a set of labelled series for the
// life of the process. Past it, an unseen undeclared name is accounted,
// labelled and echoed as overflowTenant, one shared tenant with the
// default limits (or its own, if the config declares it).
const (
	maxTenants     = 1024
	overflowTenant = "overflow"
)

// tenantTable resolves tenant names to their live accounting, creating
// undeclared tenants with the default limits on first sight.
type tenantTable struct {
	mu       sync.Mutex
	declared map[string]TenantLimits
	defaults TenantLimits
	tenants  map[string]*tenant
}

// newTenantTable declares DefaultTenant, every APIKeys value and every
// Tenants key; only Tenants entries carry limits of their own.
func newTenantTable(cfg Config) *tenantTable {
	declared := map[string]TenantLimits{DefaultTenant: cfg.TenantDefaults}
	for _, name := range cfg.APIKeys {
		declared[name] = cfg.TenantDefaults
	}
	for name, limits := range cfg.Tenants {
		declared[name] = limits
	}
	return &tenantTable{declared: declared, defaults: cfg.TenantDefaults, tenants: make(map[string]*tenant)}
}

// get returns the accounting of the tenant a request named, creating it on
// first use. Each undeclared name gets its own bucket at the defaults (two
// unknown tenants never share a quota) until maxTenants names are tracked;
// after that, unseen undeclared names share overflowTenant. The returned
// tenant's name is the one to label and echo.
func (tt *tenantTable) get(name string) *tenant {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if t, ok := tt.tenants[name]; ok {
		return t
	}
	limits, declared := tt.declared[name]
	if !declared && len(tt.tenants) >= maxTenants {
		name = overflowTenant
		if t, ok := tt.tenants[name]; ok {
			return t
		}
		limits, declared = tt.declared[name]
	}
	if !declared {
		limits = tt.defaults
	}
	t := &tenant{name: name, limits: limits}
	tt.tenants[name] = t
	return t
}

// states snapshots every tenant seen so far, lexically by name.
func (tt *tenantTable) states(now time.Time) []TenantState {
	tt.mu.Lock()
	list := make([]*tenant, 0, len(tt.tenants))
	for _, t := range tt.tenants {
		list = append(list, t)
	}
	tt.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	out := make([]TenantState, len(list))
	for i, t := range list {
		out[i] = t.state(now)
	}
	return out
}
