package viewsvc

// Admission control: one table under one mutex is the only record of
// in-flight work. It holds every live session, every tenant's token bucket
// and rejection tallies, and the tenant-name table; a single critical
// section resolves a request's tenant, runs its checks and registers its
// session, and closing the session is the only release. The live sessions
// are at once the server-wide semaphore (their number against
// Limits.MaxConcurrent), each tenant's concurrency quota (the sessions it
// holds), the source of the Retry-After estimate, and what graceful drain
// and GET /sessions account against — so an admitted request is visible
// everywhere from the moment it holds a slot.
//
// A tenant over its own quota answers 429 (its problem); a server past
// MaxConcurrent answers 503 (everyone's problem) — the status split is
// what lets a well-behaved client distinguish "back off, you" from "back
// off, everyone".

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the identity assigned to requests that carry no tenant
// header and no recognized API key.
const DefaultTenant = "default"

// anyTenant is the Config.Tenants entry that sets the limits of every
// tenant without an entry of its own.
const anyTenant = "*"

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
	// per-tenant concurrency cap (the server-wide limit still applies).
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

// Session is one admitted request's identity, from the moment it passes
// admission control until its last byte is written (or its stream aborts).
type Session struct {
	ID         uint64    `json:"id"`
	View       string    `json:"view"`
	Strategy   string    `json:"strategy"`
	Tenant     string    `json:"tenant"`
	RemoteAddr string    `json:"remote_addr"`
	Started    time.Time `json:"started"`
	// Deadline is the request's effective deadline (zero when unbounded).
	// Snapshots expose it as the remaining budget instead — an absolute
	// instant is useless to an operator reading JSON.
	Deadline time.Time `json:"-"`
	// DeadlineRemainingMS is filled at snapshot time from Deadline.
	DeadlineRemainingMS int64 `json:"deadline_remaining_ms,omitempty"`
	// BytesWritten is filled at snapshot time from bytes.
	BytesWritten int64 `json:"bytes_written"`

	// bytes is the response body's one byte count: the response writer
	// adds to it, and the byte limit, the metrics, the fail-closed check
	// and /sessions read it; hence atomic.
	bytes *atomic.Int64
}

// tenant is one identity's rate accounting: a token bucket refilled by
// wall clock, plus its rejection tallies. Its concurrency is the live
// sessions it holds.
type tenant struct {
	name     string
	limits   TenantLimits
	tokens   float64
	lastFill time.Time
	rejRate  int64
	rejConc  int64
}

// refill tops the bucket up for the wall clock elapsed since the last
// fill.
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

// refusal is why a request was turned away before it streamed: the reply's
// status and message, and for a 429 or 503 the Retry-After hint.
type refusal struct {
	status     int
	msg        string
	retryAfter time.Duration
}

// admission is the table; every field is guarded by mu.
type admission struct {
	mu       sync.Mutex
	max      int // Limits.MaxConcurrent, resolved
	declared map[string]TenantLimits
	defaults TenantLimits
	tenants  map[string]*tenant
	next     uint64
	live     map[uint64]*Session
}

// newAdmission declares DefaultTenant, every APIKeys value and every
// Tenants key but anyTenant; only Tenants entries carry limits of their
// own, the rest get anyTenant's.
func newAdmission(cfg Config) *admission {
	defaults := cfg.Tenants[anyTenant]
	declared := map[string]TenantLimits{DefaultTenant: defaults}
	for _, name := range cfg.APIKeys {
		declared[name] = defaults
	}
	for name, limits := range cfg.Tenants {
		if name != anyTenant {
			declared[name] = limits
		}
	}
	return &admission{
		max:      cfg.Limits.maxConcurrent(),
		declared: declared,
		defaults: defaults,
		tenants:  make(map[string]*tenant),
		live:     make(map[uint64]*Session),
	}
}

// admit resolves the request's tenant into s.Tenant and, unless the
// request is refused, registers s as live. A request its handler already
// refused (early: a malformed or spent budget) only resolves its tenant,
// so the reply echoes it, and takes nothing. Otherwise the checks run in
// fixed order: the tenant's token bucket and concurrency quota (429, no
// token taken), then Limits.MaxConcurrent (503, one token taken: the
// tenant was within its quota and spent its request). Per-tenant gates
// come first so one tenant's burst is charged to that tenant before it can
// contend for the shared slots. Every Retry-After is computed here, from
// the same live sessions the check counted.
func (a *admission) admit(s *Session, tenantName string, early *refusal) *refusal {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenant(tenantName)
	s.Tenant = t.name
	if early != nil {
		return early
	}
	lim := t.limits
	if lim.Rate > 0 {
		t.refill(s.Started)
		if t.tokens < 1 {
			t.rejRate++
			need := (1 - t.tokens) / lim.Rate
			return &refusal{http.StatusTooManyRequests, fmt.Sprintf("tenant %q over rate quota", t.name),
				time.Duration(need * float64(time.Second))}
		}
	}
	if lim.MaxConcurrent > 0 {
		if n, oldest := a.holding(t.name); n >= lim.MaxConcurrent {
			t.rejConc++
			return &refusal{http.StatusTooManyRequests, fmt.Sprintf("tenant %q over concurrency quota", t.name),
				drainRetryAfter(oldest, lim.MaxConcurrent)}
		}
	}
	if lim.Rate > 0 {
		t.tokens--
	}
	if len(a.live) >= a.max {
		_, oldest := a.holding("")
		return &refusal{http.StatusServiceUnavailable, "server saturated: concurrent stream limit reached",
			drainRetryAfter(oldest, a.max)}
	}
	a.next++
	s.ID = a.next
	a.live[s.ID] = s
	return nil
}

// close ends an admitted session: the only release of its slot.
func (a *admission) close(s *Session) {
	a.mu.Lock()
	delete(a.live, s.ID)
	a.mu.Unlock()
}

// tenant returns the accounting of the tenant a request named, creating it
// on first use. Each undeclared name gets its own bucket at the defaults
// (two unknown tenants never share a quota) until maxTenants names are
// tracked; after that, unseen undeclared names share overflowTenant. A
// request naming anyTenant is DefaultTenant's: "*" is never a tenant. The
// returned tenant's name is the one to label and echo. Caller holds mu.
func (a *admission) tenant(name string) *tenant {
	if name == anyTenant {
		name = DefaultTenant
	}
	if t, ok := a.tenants[name]; ok {
		return t
	}
	limits, declared := a.declared[name]
	if !declared && len(a.tenants) >= maxTenants {
		name = overflowTenant
		if t, ok := a.tenants[name]; ok {
			return t
		}
		limits, declared = a.declared[name]
	}
	if !declared {
		limits = a.defaults
	}
	t := &tenant{name: name, limits: limits}
	a.tenants[name] = t
	return t
}

// holding counts the live sessions of one tenant ("" matches all) and
// returns the age of the oldest, 0 when there is none. Caller holds mu.
func (a *admission) holding(tenant string) (n int, oldest time.Duration) {
	var first time.Time
	for _, s := range a.live {
		if tenant != "" && s.Tenant != tenant {
			continue
		}
		n++
		if first.IsZero() || s.Started.Before(first) {
			first = s.Started
		}
	}
	if n == 0 {
		return 0, 0
	}
	return n, time.Since(first)
}

// count reports how many sessions are live.
func (a *admission) count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.live)
}

// sessions returns the live sessions ordered by ID (admission order), with
// the derived JSON fields (remaining budget, bytes written) filled in.
func (a *admission) sessions() []Session {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	out := make([]Session, 0, len(a.live))
	for _, s := range a.live {
		c := *s
		if !c.Deadline.IsZero() {
			rem := c.Deadline.Sub(now).Milliseconds()
			if rem < 1 {
				rem = 1 // live but past-due: still distinguish from "no deadline"
			}
			c.DeadlineRemainingMS = rem
		}
		c.BytesWritten = s.bytes.Load()
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// states snapshots every tenant seen so far, lexically by name.
func (a *admission) states() []TenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := time.Now()
	inFlight := make(map[string]int)
	for _, s := range a.live {
		inFlight[s.Tenant]++
	}
	out := make([]TenantState, 0, len(a.tenants))
	for _, t := range a.tenants {
		if t.limits.Rate > 0 {
			t.refill(now)
		}
		out = append(out, TenantState{
			Tenant:              t.name,
			Rate:                t.limits.Rate,
			Burst:               t.limits.Burst,
			MaxConcurrent:       t.limits.MaxConcurrent,
			Tokens:              t.tokens,
			InFlight:            inFlight[t.name],
			RejectedRate:        t.rejRate,
			RejectedConcurrency: t.rejConc,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Bounds on the drain-derived Retry-After hint: never tell a client to
// hammer sub-second, never park it for more than a minute.
const (
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute
)

// drainRetryAfter turns the observed session drain rate into an honest
// Retry-After hint. The oldest live session has been streaming for
// `oldest`; if the full quota of `quota` slots drains at that per-session
// pace, one slot frees up after roughly oldest/quota more — the
// steady-state estimate for uniformly staggered sessions. The result is
// clamped to [minRetryAfter, maxRetryAfter]; with nothing live to observe
// (oldest <= 0 or quota <= 0) it is the floor.
func drainRetryAfter(oldest time.Duration, quota int) time.Duration {
	est := minRetryAfter
	if oldest > 0 && quota > 0 {
		est = oldest / time.Duration(quota)
	}
	if est < minRetryAfter {
		est = minRetryAfter
	}
	if est > maxRetryAfter {
		est = maxRetryAfter
	}
	return est
}
