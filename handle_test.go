// Tests for the unified facade: Handle as the one registry entry for any
// backend, and Dial as the one constructor behind the Connect* aliases.
package silkroute

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"

	"silkroute/internal/rxl"
)

func TestHandleMatchesParseView(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	v, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := v.Materialize(ctx, &want, Greedy); err != nil {
		t.Fatal(err)
	}

	h, err := NewHandle("fragment", db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != "fragment" {
		t.Errorf("Name = %q", h.Name())
	}
	if h.Strategy() != Greedy {
		t.Errorf("default strategy = %v, want Greedy", h.Strategy())
	}
	var got bytes.Buffer
	if _, err := h.Materialize(context.Background(), &got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("Handle.Materialize differs from View.Materialize")
	}
}

func TestHandleStrategyOption(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	h, err := NewHandle("fragment", db, rxl.FragmentSource, WithStrategy(Unified))
	if err != nil {
		t.Fatal(err)
	}
	if h.Strategy() != Unified {
		t.Errorf("strategy = %v, want Unified", h.Strategy())
	}
}

func TestDialRejectsBadEndpointConfigs(t *testing.T) {
	if _, err := Dial(Topology{}); err == nil {
		t.Error("Dial(Topology{}) with no endpoint succeeded")
	}
	// A replica group needs at least one address, alone or inside a grid.
	if _, err := Dial(Replicas()); err == nil {
		t.Error("Dial(Replicas()) with no address succeeded")
	}
	if _, err := Dial(Sharded(Single("x:1"), Replicas())); err == nil {
		t.Error("Dial of a grid with an empty replica group succeeded")
	}
}

// mustDial is Dial for tests whose topology is known good.
func mustDial(t testing.TB, topo Topology, opts ...Option) *Remote {
	t.Helper()
	r, err := Dial(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDialSingleAndReplicas drives the unified constructor down both remote
// shapes — one address and many — and requires byte-identity with the
// local materialization.
func TestDialSingleAndReplicas(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	var listeners []net.Listener
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback unavailable: %v", err)
		}
		defer l.Close()
		go db.Serve(l)
		listeners = append(listeners, l)
	}

	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, Unified); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		addrs []string
	}{
		{"single", []string{listeners[0].Addr().String()}},
		{"replicas", []string{listeners[0].Addr().String(), listeners[1].Addr().String()}},
	} {
		r, err := Dial(Replicas(tc.addrs...), WithSource(tpchSourceDescription(t)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The source description rides the connection: nil at parse time
		// falls back to it, so call sites configure the schema once.
		h, err := NewHandle("fragment", r, rxl.FragmentSource, WithStrategy(Unified))
		if err != nil {
			r.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got bytes.Buffer
		if _, err := h.Materialize(context.Background(), &got); err != nil {
			r.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: remote document differs from local", tc.name)
		}
		r.Close()
	}
}

func TestRemoteParseRequiresSomeSource(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go OpenTPCH(0, 42).Serve(l)

	r, err := Dial(Single(l.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = ParseRemoteView(r, nil, rxl.FragmentSource)
	if err == nil || !strings.Contains(err.Error(), "source") {
		t.Errorf("parse with no source description = %v, want a source error", err)
	}
}
