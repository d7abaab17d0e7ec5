package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceID identifies one logical operation end to end — a Materialize call,
// or one wire request with all its server-side work. It is generated once
// per logical operation and is stable across reopens: a healed wire stream
// reopens under the same trace, so every reopen's server spans stitch into
// the one client request's trace.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// Span is one timed unit of work inside a trace. Spans form a tree via
// Parent; a zero Parent marks a root. A span crossing the wire carries its
// trace and span IDs in the request header, and the server's spans use the
// client's span ID as their Parent — that is the whole stitching protocol.
type Span struct {
	Trace  TraceID
	ID     SpanID
	Parent SpanID
	Name   string
	Detail string // free-form annotation (SQL text, stream index, ...)
	Start  time.Time
	Dur    time.Duration

	tracer *Tracer
}

// traceRing bounds the tracer's memory: the most recent traceRing finished
// spans are retained for inspection.
const traceRing = 4096

// Tracer collects finished spans into a bounded ring. It is not a
// distributed tracing backend — it is just enough structure to answer
// "what did this request actually do, layer by layer" in tests, in
// -explain output, and while debugging a deployment.
type Tracer struct {
	mu    sync.Mutex
	rng   *rand.Rand
	spans [traceRing]Span
	n     int64
}

func (t *Tracer) ids() (TraceID, SpanID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	// Uint64 can return 0; IDs must be nonzero so a zero Parent always
	// means "root".
	tid := TraceID(t.rng.Uint64() | 1)
	sid := SpanID(t.rng.Uint64() | 1)
	return tid, sid
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.spans[t.n%traceRing] = s
	t.n++
	t.mu.Unlock()
}

// Recent returns every retained span, in no particular order.
func (t *Tracer) Recent() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if n > traceRing {
		n = traceRing
	}
	out := make([]Span, n)
	copy(out, t.spans[:n])
	return out
}

// Spans returns every retained span of the given trace, oldest first.
func (t *Tracer) Spans(id TraceID) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.n
	if n > traceRing {
		n = traceRing
	}
	var out []Span
	// Ring order ≠ record order once wrapped, so collect then sort by
	// start time.
	for i := int64(0); i < n; i++ {
		if t.spans[i].Trace == id {
			out = append(out, t.spans[i])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// TraceTree renders a trace's spans as an indented tree, children under
// their parents, for debugging and tests.
func (t *Tracer) TraceTree(id TraceID) string {
	spans := t.Spans(id)
	children := make(map[SpanID][]Span)
	byID := make(map[SpanID]bool, len(spans))
	for _, s := range spans {
		byID[s.ID] = true
	}
	var roots []Span
	for _, s := range spans {
		if s.Parent != 0 && byID[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b strings.Builder
	var walk func(s Span, depth int)
	walk = func(s Span, depth int) {
		fmt.Fprintf(&b, "%s%s (%v)", strings.Repeat("  ", depth), s.Name, s.Dur.Round(time.Microsecond))
		if s.Detail != "" {
			fmt.Fprintf(&b, " — %s", s.Detail)
		}
		b.WriteByte('\n')
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

type spanKey struct{}

// ContextWithSpan returns ctx carrying s as the current span; child spans
// started from the returned context parent under it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan begins a span under the current span in ctx (or a new root if
// there is none), in the process-global tracer. It returns ctx unchanged
// and a nil span when observability is disabled; (*Span).End is nil-safe,
// so call sites need no branches.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return startSpan(M(), ctx, name)
}

func startSpan(m *Metrics, ctx context.Context, name string) (context.Context, *Span) {
	if m == nil {
		return ctx, nil
	}
	t := &m.Tracer
	s := &Span{Name: name, Start: time.Now(), tracer: t}
	if parent := SpanFromContext(ctx); parent != nil {
		s.Trace = parent.Trace
		s.Parent = parent.ID
		_, s.ID = t.ids()
	} else {
		s.Trace, s.ID = t.ids()
	}
	return ContextWithSpan(ctx, s), s
}

// StartRemoteSpan begins a span whose parent lives in another process: the
// trace and parent-span IDs arrived in a wire request header. A zero trace
// ID (untraced request) starts a fresh root trace.
func StartRemoteSpan(ctx context.Context, name string, trace TraceID, parent SpanID) (context.Context, *Span) {
	m := M()
	if m == nil {
		return ctx, nil
	}
	t := &m.Tracer
	s := &Span{Trace: trace, Parent: parent, Name: name, Start: time.Now(), tracer: t}
	if s.Trace == 0 {
		s.Trace, s.ID = t.ids()
	} else {
		_, s.ID = t.ids()
	}
	return ContextWithSpan(ctx, s), s
}

// SetDetail attaches a free-form annotation to the span.
func (s *Span) SetDetail(d string) {
	if s == nil {
		return
	}
	s.Detail = d
}

// End finishes the span and records it in its tracer. Safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Dur = time.Since(s.Start)
	s.tracer.record(*s)
}
