package wire

import (
	"bufio"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"silkroute/internal/obs"
)

// withObs installs a fresh global metrics sink for the test and restores
// the previous one afterwards.
func withObs(t *testing.T) *obs.Metrics {
	t.Helper()
	old := obs.M()
	m := obs.NewMetrics()
	obs.SetGlobal(m)
	t.Cleanup(func() { obs.SetGlobal(old) })
	return m
}

// sniffRequest reads the client's first frame off conn and returns its
// decoded header (trace zero unless the traced flag is set) along with the
// raw frame.
func sniffRequest(br *bufio.Reader) (request, []byte, error) {
	frame, err := readFrame(br, nil, maxFrame)
	if err != nil {
		return request{}, nil, err
	}
	req, err := parseRequest(frame)
	return req, frame, err
}

// TestTraceIDStableAcrossRetry asserts the core trace-propagation
// contract: the trace ID is generated once per logical request, so the
// frame of a retried attempt carries the same ID as the failed attempt. A
// fresh ID per attempt would split one logical request across traces.
func TestTraceIDStableAcrossRetry(t *testing.T) {
	withObs(t)
	srv := &Server{DB: wireDB(t)}

	var mu sync.Mutex
	var traces []uint64
	dials := 0
	dial := func(dctx context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		mu.Lock()
		dials++
		failThis := dials == 1
		mu.Unlock()
		go func() {
			br := bufio.NewReader(c2)
			req, frame, err := sniffRequest(br)
			if err != nil {
				c2.Close()
				return
			}
			mu.Lock()
			traces = append(traces, uint64(req.trace))
			mu.Unlock()
			if failThis {
				// Transient pre-stream failure: the request was read but the
				// connection dies before any response frame.
				c2.Close()
				return
			}
			// Forward the sniffed frame (and everything after) to a real
			// server and relay its response back.
			s1, s2 := net.Pipe()
			go srv.ServeConn(s2)
			bw := bufio.NewWriter(s1)
			if err := writeFrame(bw, frame); err != nil || bw.Flush() != nil {
				c2.Close()
				return
			}
			go io.Copy(s1, br)
			io.Copy(c2, s1)
			c2.Close()
			s1.Close()
		}()
		return c1, nil
	}

	client := NewClient(dial, WithRetry(Retry{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	defer client.Close()
	rows, err := client.Query(ctx, "select n.name from Nation n order by n.name")
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	if len(got) != 3 {
		t.Fatalf("got %d rows", len(got))
	}
	if rows.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", rows.Attempts)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(traces) != 2 {
		t.Fatalf("sniffed %d requests, want 2 (one failed attempt + one retry)", len(traces))
	}
	if traces[0] == 0 {
		t.Fatal("request carried no trace ID despite obs being enabled")
	}
	if traces[0] != traces[1] {
		t.Fatalf("trace ID changed across retry: attempt 1 = %x, attempt 2 = %x", traces[0], traces[1])
	}
}

// TestUntracedRequestWhenObsDisabled: with observability off (and no
// deadline), requests go out as the bare two-byte header plus SQL — no
// flag set, no trace field.
func TestUntracedRequestWhenObsDisabled(t *testing.T) {
	old := obs.M()
	obs.SetGlobal(nil)
	t.Cleanup(func() { obs.SetGlobal(old) })

	srv := &Server{DB: wireDB(t)}
	sawHeader := make(chan request, 1)
	dial := func(dctx context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go func() {
			br := bufio.NewReader(c2)
			req, frame, err := sniffRequest(br)
			if err != nil {
				c2.Close()
				return
			}
			sawHeader <- req
			s1, s2 := net.Pipe()
			go srv.ServeConn(s2)
			bw := bufio.NewWriter(s1)
			if err := writeFrame(bw, frame); err != nil || bw.Flush() != nil {
				c2.Close()
				return
			}
			go io.Copy(s1, br)
			io.Copy(c2, s1)
			c2.Close()
			s1.Close()
		}()
		return c1, nil
	}
	client := NewClient(dial)
	defer client.Close()
	rows, err := client.Query(ctx, "select n.name from Nation n order by n.name")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rows)
	if req := <-sawHeader; req.op != opQuery || req.flags != 0 {
		t.Fatalf("request op %q flags %02b, want a flagless query with obs disabled", req.op, req.flags)
	}
}

// TestServerSpansStitchUnderClientSpan exercises the whole stitching path
// over the in-process transport: the client's request span rides the wire
// and the server's spans come back parented under it, forming one trace.
// (InProcess shares the global tracer between both sides, so the trace is
// directly inspectable.)
func TestServerSpansStitchUnderClientSpan(t *testing.T) {
	m := withObs(t)
	client := InProcess(wireDB(t))
	defer client.Close()

	rows, err := client.Query(ctx, "select n.name from Nation n order by n.name")
	if err != nil {
		t.Fatal(err)
	}
	drain(t, rows)
	if _, err := client.Estimate(ctx, "select n.name from Nation n"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StatsEpoch(ctx); err != nil {
		t.Fatal(err)
	}

	// Find the client span and check a server span hangs under it. The
	// server records its span just after flushing the response, so the
	// client side can get here first; poll briefly.
	verify := func(clientName, serverName string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			spans := allSpans(m)
			for _, cs := range spans {
				if cs.Name != clientName {
					continue
				}
				for _, ss := range spans {
					if ss.Name == serverName && ss.Trace == cs.Trace && ss.Parent == cs.ID {
						return
					}
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("no %s span stitched under a %s span", serverName, clientName)
			}
			time.Sleep(time.Millisecond)
		}
	}
	verify("wire.client.query", "wire.server.query")
	verify("wire.client.estimate", "wire.server.estimate")
	verify("wire.client.epoch", "wire.server.epoch")
}

// allSpans pulls every retained span out of the tracer by probing the
// traces of recorded client spans.
func allSpans(m *obs.Metrics) []obs.Span {
	var out []obs.Span
	seen := map[obs.TraceID]bool{}
	// The tracer only exposes per-trace retrieval; walk traces reachable
	// from any span recorded under them by brute force over recent spans.
	for _, probe := range m.Tracer.Recent() {
		if !seen[probe.Trace] {
			seen[probe.Trace] = true
			out = append(out, m.Tracer.Spans(probe.Trace)...)
		}
	}
	return out
}
