package wire

import (
	"errors"
	"time"

	"silkroute/internal/obs"
)

// Breaker configures the client's circuit breaker. A Client talks to one
// server (one dialer), so the breaker is per-client: Threshold consecutive
// transport failures open it, every request then fails fast with
// ErrCircuitOpen until Cooldown elapses, after which a single half-open
// probe request is let through — its outcome closes the breaker again or
// re-opens it for another cooldown.
type Breaker struct {
	// Threshold is the consecutive transport-failure count that opens the
	// breaker; <= 0 disables circuit breaking.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. Zero means DefaultBreakerCooldown.
	Cooldown time.Duration
}

// DefaultBreakerCooldown is used when Breaker.Cooldown is zero.
const DefaultBreakerCooldown = time.Second

// WithBreaker sets the circuit-breaker policy. Disabled by default.
func WithBreaker(b Breaker) ClientOption {
	return func(c *Client) { c.breaker = b }
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerHalfOpen
	breakerOpen
)

// breakerOutcome classifies how a breaker-guarded operation ended, for
// breakerDone.
type breakerOutcome int

const (
	// breakerSuccess: the server answered (even with a clean SQL error) —
	// it is healthy.
	breakerSuccess breakerOutcome = iota
	// breakerFailure: a transport-class failure — the server (or the path
	// to it) looks unhealthy.
	breakerFailure
	// breakerNeutral: the operation ended for reasons that say nothing
	// about server health (caller canceled, client closed). A half-open
	// probe token is released so the next request can probe again.
	breakerNeutral
)

func (c *Client) cooldown() time.Duration {
	if c.breaker.Cooldown > 0 {
		return c.breaker.Cooldown
	}
	return DefaultBreakerCooldown
}

// breakerAllow gates one guarded operation. It returns ErrCircuitOpen when
// the breaker is open (or a half-open probe is already in flight); a nil
// return must be balanced by exactly one breakerDone call.
func (c *Client) breakerAllow() error {
	if c.breaker.Threshold <= 0 {
		return nil
	}
	c.brMu.Lock()
	defer c.brMu.Unlock()
	switch c.brState {
	case breakerOpen:
		if time.Since(c.brOpenedAt) < c.cooldown() {
			return ErrCircuitOpen
		}
		// Cooldown over: admit exactly one probe.
		c.setBreakerState(breakerHalfOpen)
		c.brProbe = true
		return nil
	case breakerHalfOpen:
		if c.brProbe {
			return ErrCircuitOpen
		}
		c.brProbe = true
		return nil
	default:
		return nil
	}
}

// availability classifies the client for replica balancing without
// mutating breaker state: 0 = healthy (breaker closed or disabled),
// 1 = probing (half-open, or open with the cooldown elapsed — one request
// may be admitted), 2 = open and cooling (a request would fail fast).
func (c *Client) availability() int {
	if c.breaker.Threshold <= 0 {
		return 0
	}
	c.brMu.Lock()
	defer c.brMu.Unlock()
	switch c.brState {
	case breakerOpen:
		if time.Since(c.brOpenedAt) < c.cooldown() {
			return 2
		}
		return 1
	case breakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// breakerDone records the outcome of a guarded operation admitted by
// breakerAllow.
func (c *Client) breakerDone(outcome breakerOutcome) {
	if c.breaker.Threshold <= 0 {
		return
	}
	c.brMu.Lock()
	defer c.brMu.Unlock()
	c.brProbe = false
	switch outcome {
	case breakerSuccess:
		c.brFails = 0
		if c.brState != breakerClosed {
			c.setBreakerState(breakerClosed)
		}
	case breakerFailure:
		c.brFails++
		// A failed half-open probe re-opens immediately; in the closed
		// state the consecutive-failure threshold decides.
		if c.brState == breakerHalfOpen || c.brFails >= c.breaker.Threshold {
			c.setBreakerState(breakerOpen)
			c.brOpenedAt = time.Now()
			if m := obs.M(); m != nil {
				m.Client.BreakerOpens.Inc()
			}
		}
	case breakerNeutral:
		// Nothing learned; a half-open breaker stays half-open with its
		// probe token back, so the next request probes.
	}
}

// setBreakerState transitions the state and mirrors it to the gauge.
// Callers hold brMu.
func (c *Client) setBreakerState(s breakerState) {
	c.brState = s
	if m := obs.M(); m != nil {
		m.Client.BreakerState.Set(int64(s))
	}
}

// classifyBreaker maps a finished guarded operation onto a breaker
// outcome. ctxErr is the request context's Err() at completion.
func classifyBreaker(ctxErr error, err error) breakerOutcome {
	var se *Error
	switch {
	case err == nil:
		return breakerSuccess
	case errors.As(err, &se):
		// A definitive server answer: the request failed, the path is
		// healthy.
		return breakerSuccess
	case ctxErr != nil,
		errors.Is(err, ErrClientClosed),
		errors.Is(err, ErrCircuitOpen),
		errors.Is(err, ErrDeadlineExceeded),
		errors.Is(err, ErrCanceled):
		return breakerNeutral
	default:
		return breakerFailure
	}
}
