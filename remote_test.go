package silkroute

import (
	"bytes"
	"net"
	"testing"

	"silkroute/internal/obs"
	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
)

// tpchSourceDescription builds the facade-level source description for the
// TPC-H fragment, the file the paper's middleware keeps beside the
// connection details.
func tpchSourceDescription(t *testing.T) *Schema {
	t.Helper()
	return &Schema{s: tpch.Schema()}
}

func TestRemoteMaterializationMatchesLocal(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	local, err := ParseView(db, rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := local.Materialize(ctx, &want, Unified); err != nil {
		t.Fatal(err)
	}

	remote := mustDial(t, Single(l.Addr().String()))
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Unified, FullyPartitioned, OuterUnion, Greedy} {
		var got bytes.Buffer
		rep, err := rv.Materialize(ctx, &got, strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: remote document differs from local", strat)
		}
		if strat == Greedy && rep.EstimateRequests <= 0 {
			t.Error("remote greedy made no estimate requests")
		}
	}
}

func TestRemoteGreedyUsesRemoteOracle(t *testing.T) {
	db := OpenTPCH(0.002, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	old := obs.M()
	m := obs.NewMetrics()
	obs.SetGlobal(m)
	t.Cleanup(func() { obs.SetGlobal(old) })
	remote := mustDial(t, Single(l.Addr().String()))
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := rv.Materialize(ctx, &buf, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate requests must have reached the remote server.
	if got := m.Exec.EstimatesServed.Value(); got != rep.EstimateRequests {
		t.Errorf("server saw %d estimate requests, client reports %d", got, rep.EstimateRequests)
	}
	if rep.Streams != 3 {
		t.Errorf("remote greedy chose %d streams, want 3", rep.Streams)
	}
}

func TestRemoteServerErrorSurfaces(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	remote := mustDial(t, Single(l.Addr().String()))
	// A schema that disagrees with the server: the generated SQL will
	// reference a relation the server does not have.
	s := NewSchema()
	if err := s.AddRelation("Ghost", []string{"id"}, "id", Int, "name", String); err != nil {
		t.Fatal(err)
	}
	rv, err := ParseRemoteView(remote, s, `from Ghost $g construct <g>$g.name</g>`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := rv.Materialize(ctx, &buf, Unified); err == nil {
		t.Error("mismatched source description did not surface a server error")
	}
}
