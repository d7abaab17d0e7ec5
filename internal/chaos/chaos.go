// Package chaos is SilkRoute's fault-injection harness: a deterministic,
// dependency-free set of wrappers that make connections and tuple streams
// fail on purpose — dial refusals, mid-stream cuts at an exact row or
// byte, latency spikes, fragmented writes. The middleware's resilience
// machinery (resume, failover, circuit breaker) is only trustworthy if its
// failure paths are exercised as methodically as its happy paths; this
// package makes those failures reproducible enough to assert byte-exact
// output under them.
//
// Everything is seeded and scheduling-independent: row-cut points derive
// from a hash of (seed, query text), not from global counters, so a plan
// that opens its streams concurrently still gets the same faults run
// after run.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every fault this package injects; test code can tell
// deliberate failures from real ones with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// Spec configures an Injector. The zero value injects nothing.
type Spec struct {
	// Seed feeds the per-query hash that picks pseudo-random cut rows.
	Seed int64
	// RefuseDialEvery refuses every Nth dial attempt (connection refused
	// at the doorstep); 0 disables.
	RefuseDialEvery int
	// CutReadAfter kills a connection after this many bytes have been
	// read through it; 0 disables.
	CutReadAfter int64
	// CutWriteAfter kills a connection after this many bytes have been
	// written through it; 0 disables.
	CutWriteAfter int64
	// MaxWriteChunk fragments writes into chunks of at most this many
	// bytes (exercising frame reassembly across packet boundaries);
	// 0 disables.
	MaxWriteChunk int
	// LatencyEvery injects Latency before every Nth read; 0 disables.
	LatencyEvery int
	// Latency is the injected delay for LatencyEvery.
	Latency time.Duration
	// CutRowAt kills each query's stream right before result row index
	// CutRowAt (0-based: the client receives exactly CutRowAt rows);
	// 0 disables. Requires the server-side RowFault hook.
	CutRowAt int64
	// CutRowMax, when > 0, overrides CutRowAt with a per-query
	// pseudo-random row in [1, CutRowMax], derived from Seed and the
	// query text.
	CutRowMax int64
	// KillTimes bounds how many times each distinct query text is killed
	// by the row cut; 0 means once. A resumed continuation carries
	// different SQL (its key-range predicate), so it is eligible for its
	// own kill — but an already-killed text run again (a stream's last
	// reopen, from the top) passes, which guarantees forward progress.
	KillTimes int
}

// ParseSpec parses the comma-separated key=value form used by the -chaos
// flag, e.g. "seed=7,cutrow=100,refusedial=5,latency=2ms,latencyevery=10".
// Keys: seed, refusedial, cutread, cutwrite, maxwrite, latency,
// latencyevery, cutrow, cutrowmax, kills. An empty string is the zero
// Spec.
func ParseSpec(s string) (Spec, error) {
	var sp Spec
	if strings.TrimSpace(s) == "" {
		return sp, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Spec{}, fmt.Errorf("chaos: spec field %q is not key=value", field)
		}
		var err error
		switch strings.ToLower(k) {
		case "seed":
			sp.Seed, err = strconv.ParseInt(v, 10, 64)
		case "refusedial":
			sp.RefuseDialEvery, err = strconv.Atoi(v)
		case "cutread":
			sp.CutReadAfter, err = strconv.ParseInt(v, 10, 64)
		case "cutwrite":
			sp.CutWriteAfter, err = strconv.ParseInt(v, 10, 64)
		case "maxwrite":
			sp.MaxWriteChunk, err = strconv.Atoi(v)
		case "latency":
			sp.Latency, err = time.ParseDuration(v)
		case "latencyevery":
			sp.LatencyEvery, err = strconv.Atoi(v)
		case "cutrow":
			sp.CutRowAt, err = strconv.ParseInt(v, 10, 64)
		case "cutrowmax":
			sp.CutRowMax, err = strconv.ParseInt(v, 10, 64)
		case "kills":
			sp.KillTimes, err = strconv.Atoi(v)
		default:
			return Spec{}, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("chaos: spec field %q: %v", field, err)
		}
	}
	return sp, nil
}

// String renders the spec back into ParseSpec's key=value form, omitting
// zero fields; a zero Spec renders as "". ParseSpec(sp.String()) == sp,
// which lets a Spec travel through string-typed plumbing like
// DB.ServeChaosContext, one string per server.
func (sp Spec) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if sp.Seed != 0 {
		add("seed", strconv.FormatInt(sp.Seed, 10))
	}
	if sp.RefuseDialEvery != 0 {
		add("refusedial", strconv.Itoa(sp.RefuseDialEvery))
	}
	if sp.CutReadAfter != 0 {
		add("cutread", strconv.FormatInt(sp.CutReadAfter, 10))
	}
	if sp.CutWriteAfter != 0 {
		add("cutwrite", strconv.FormatInt(sp.CutWriteAfter, 10))
	}
	if sp.MaxWriteChunk != 0 {
		add("maxwrite", strconv.Itoa(sp.MaxWriteChunk))
	}
	if sp.Latency != 0 {
		add("latency", sp.Latency.String())
	}
	if sp.LatencyEvery != 0 {
		add("latencyevery", strconv.Itoa(sp.LatencyEvery))
	}
	if sp.CutRowAt != 0 {
		add("cutrow", strconv.FormatInt(sp.CutRowAt, 10))
	}
	if sp.CutRowMax != 0 {
		add("cutrowmax", strconv.FormatInt(sp.CutRowMax, 10))
	}
	if sp.KillTimes != 0 {
		add("kills", strconv.Itoa(sp.KillTimes))
	}
	return strings.Join(parts, ",")
}

// Injector applies one Spec. It is safe for concurrent use; one Injector
// may wrap any number of dialers, listeners, and servers.
type Injector struct {
	spec  Spec
	dials atomic.Int64

	mu    sync.Mutex
	kills map[string]int // row-cut kills spent, per query text
}

// New returns an Injector for the spec.
func New(spec Spec) *Injector {
	return &Injector{spec: spec, kills: make(map[string]int)}
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// WrapDial wraps a dial function (the signature matches wire.Dialer):
// every RefuseDialEvery-th attempt is refused, and accepted connections
// get the spec's byte-level faults.
func (in *Injector) WrapDial(next func(context.Context) (net.Conn, error)) func(context.Context) (net.Conn, error) {
	return func(ctx context.Context) (net.Conn, error) {
		if n := in.spec.RefuseDialEvery; n > 0 && in.dials.Add(1)%int64(n) == 0 {
			return nil, fmt.Errorf("%w: dial refused", ErrInjected)
		}
		conn, err := next(ctx)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(conn), nil
	}
}

// Listener wraps a listener so every accepted connection carries the
// spec's byte-level faults (the server-side twin of WrapDial).
func (in *Injector) Listener(l net.Listener) net.Listener {
	return &faultListener{Listener: l, in: in}
}

// WrapConn applies the spec's byte-level faults (read/write cuts, latency
// spikes, fragmented writes) to one connection.
func (in *Injector) WrapConn(conn net.Conn) net.Conn {
	sp := in.spec
	if sp.CutReadAfter == 0 && sp.CutWriteAfter == 0 && sp.MaxWriteChunk == 0 &&
		(sp.LatencyEvery == 0 || sp.Latency == 0) {
		return conn
	}
	return &faultConn{Conn: conn, in: in}
}

// RowFault is the server-side stream killer; assign it to
// wire.Server.RowFault. Each distinct query text is killed at most
// KillTimes times (default once), right before its cut row, so an
// identical re-issue of a killed query runs clean — which is what lets a
// resume chain make progress even when every fresh continuation is killed
// in turn.
func (in *Injector) RowFault(sql string) func(rowIndex int64) error {
	row := in.spec.CutRowAt
	if in.spec.CutRowMax > 0 {
		row = 1 + int64(seededHash(in.spec.Seed, sql)%uint64(in.spec.CutRowMax))
	}
	if row <= 0 {
		return nil
	}
	kt := in.spec.KillTimes
	if kt <= 0 {
		kt = 1
	}
	in.mu.Lock()
	spent := in.kills[sql]
	if spent >= kt {
		in.mu.Unlock()
		return nil
	}
	in.kills[sql] = spent + 1
	in.mu.Unlock()
	return func(i int64) error {
		if i >= row {
			return fmt.Errorf("%w: cut stream at row %d", ErrInjected, row)
		}
		return nil
	}
}

// Kills reports how many row-cut kills have been spent, summed over all
// query texts.
func (in *Injector) Kills() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, k := range in.kills {
		n += k
	}
	return n
}

// seededHash mixes the seed into an FNV-1a hash of the query text, so cut
// rows are stable per (seed, query) and independent of scheduling order.
func seededHash(seed int64, sql string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(sql))
	return h.Sum64()
}

type faultListener struct {
	net.Listener
	in *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(conn), nil
}

// faultConn injects byte-level faults on one connection. Counters are
// per-connection: a fresh dial starts clean.
type faultConn struct {
	net.Conn
	in      *Injector
	reads   atomic.Int64
	read    atomic.Int64
	written atomic.Int64
}

func (c *faultConn) Read(p []byte) (int, error) {
	sp := &c.in.spec
	if sp.LatencyEvery > 0 && sp.Latency > 0 && c.reads.Add(1)%int64(sp.LatencyEvery) == 0 {
		time.Sleep(sp.Latency)
	}
	if sp.CutReadAfter > 0 {
		rem := sp.CutReadAfter - c.read.Load()
		if rem <= 0 {
			c.Conn.Close()
			return 0, fmt.Errorf("%w: read cut after %d bytes", ErrInjected, sp.CutReadAfter)
		}
		if int64(len(p)) > rem {
			p = p[:rem]
		}
	}
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	sp := &c.in.spec
	if sp.CutWriteAfter > 0 && c.written.Load() >= sp.CutWriteAfter {
		c.Conn.Close()
		return 0, fmt.Errorf("%w: write cut after %d bytes", ErrInjected, sp.CutWriteAfter)
	}
	// Fragmented writes go through the wire in MaxWriteChunk-sized pieces,
	// looping to honor the io.Writer contract (no silent short writes).
	total := 0
	for len(p) > 0 {
		chunk := p
		if sp.MaxWriteChunk > 0 && len(chunk) > sp.MaxWriteChunk {
			chunk = chunk[:sp.MaxWriteChunk]
		}
		if sp.CutWriteAfter > 0 {
			rem := sp.CutWriteAfter - c.written.Load()
			if rem <= 0 {
				c.Conn.Close()
				return total, fmt.Errorf("%w: write cut after %d bytes", ErrInjected, sp.CutWriteAfter)
			}
			if int64(len(chunk)) > rem {
				chunk = chunk[:rem]
			}
		}
		n, err := c.Conn.Write(chunk)
		total += n
		c.written.Add(int64(n))
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}
