package viewsvc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Session is one admitted request's identity, from the moment it passes
// admission control until its last byte is written (or its stream aborts).
// The table of live sessions is what graceful drain accounts against and
// what /sessions exposes for operators.
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

	// bytes counts response-body bytes as the stream writes them; shared
	// with the response writer, hence atomic.
	bytes *atomic.Int64
}

// sessionTable tracks live sessions. It is deliberately tiny: an ID
// counter and a map under one mutex — admission is already throttled by
// the semaphore, so this lock sees at most MaxConcurrent writers.
type sessionTable struct {
	mu   sync.Mutex
	next uint64
	live map[uint64]*Session
}

func newSessionTable() *sessionTable {
	return &sessionTable{live: make(map[uint64]*Session)}
}

// open registers a new live session.
func (t *sessionTable) open(view, strategy, tenant, remoteAddr string, deadline time.Time) *Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	s := &Session{
		ID:         t.next,
		View:       view,
		Strategy:   strategy,
		Tenant:     tenant,
		RemoteAddr: remoteAddr,
		Started:    time.Now(),
		Deadline:   deadline,
		bytes:      new(atomic.Int64),
	}
	t.live[s.ID] = s
	return s
}

// close removes a session from the live table.
func (t *sessionTable) close(s *Session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, s.ID)
}

// snapshot returns the live sessions ordered by ID (admission order), with
// the derived JSON fields (remaining budget, bytes written) filled in.
func (t *sessionTable) snapshot() []Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	out := make([]Session, 0, len(t.live))
	for _, s := range t.live {
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

// count reports how many sessions are live.
func (t *sessionTable) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.live)
}

// oldestAge returns the age of the longest-lived live session matching the
// tenant filter ("" matches all). ok is false when no session matches —
// nothing is draining, so there is nothing to extrapolate from.
func (t *sessionTable) oldestAge(tenant string) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var oldest time.Time
	for _, s := range t.live {
		if tenant != "" && s.Tenant != tenant {
			continue
		}
		if oldest.IsZero() || s.Started.Before(oldest) {
			oldest = s.Started
		}
	}
	if oldest.IsZero() {
		return 0, false
	}
	return time.Since(oldest), true
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
