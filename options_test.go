package silkroute

import (
	"bytes"
	"net"
	"reflect"
	"testing"

	"silkroute/internal/rxl"
)

// reportShape is a Report with its timings zeroed: what two runs of the
// same view under the same configuration must agree on.
func reportShape(r *Report) Report {
	s := *r
	s.QueryTime, s.QueryWallTime, s.TotalTime = 0, 0, 0
	s.StreamStats = append([]StreamStat(nil), r.StreamStats...)
	for i := range s.StreamStats {
		s.StreamStats[i].QueryTime, s.StreamStats[i].WallTime = 0, 0
	}
	return s
}

// TestZeroOptionsMatchOmitted pins the contract the option config rests
// on: an option given its default or zero value behaves exactly like the
// option left out, on a local view and on a Dial(Single) view, while the
// non-default values of the view options still take effect.
func TestZeroOptionsMatchOmitted(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	backends := []struct {
		name string
		open func(opts ...Option) (*View, error)
	}{
		{"local", func(opts ...Option) (*View, error) { return ParseView(db, rxl.Query1Source, opts...) }},
		{"single", func(opts ...Option) (*View, error) {
			r := mustDial(t, Single(l.Addr().String()), opts...)
			t.Cleanup(func() { r.Close() })
			return ParseRemoteView(r, tpchSourceDescription(t), rxl.Query1Source, opts...)
		}},
	}
	run := func(open func(...Option) (*View, error), opts ...Option) (string, Report) {
		t.Helper()
		v, err := open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rep, err := v.Materialize(ctx, &buf, Greedy)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), reportShape(rep)
	}

	for _, b := range backends {
		wantDoc, wantRep := run(b.open)
		for _, tc := range []struct {
			name    string
			opt     Option
			changes bool // a non-default value: the document or report must differ
		}{
			{"WithResume(0)", WithResume(0), false},
			{"WithBreaker(0, 0)", WithBreaker(0, 0), false},
			{"WithParallelism(0)", WithParallelism(0), false},
			{"WithReduce(true)", WithReduce(true), false},
			{"WithWrapper(document)", WithWrapper("document"), false},
			{"WithStrategy(Greedy)", WithStrategy(Greedy), false},
			{"WithWrapper()", WithWrapper(""), true},
			{"WithReduce(false)", WithReduce(false), true},
		} {
			doc, rep := run(b.open, tc.opt)
			same := doc == wantDoc && reflect.DeepEqual(rep, wantRep)
			switch {
			case same && tc.changes:
				t.Errorf("%s: %s changed nothing", b.name, tc.name)
			case !same && !tc.changes:
				t.Errorf("%s: %s differs from the omitted option:\ndoc equal: %v\nreport: %+v\nwant:   %+v",
					b.name, tc.name, doc == wantDoc, rep, wantRep)
			}
		}
	}

	for _, opts := range [][]Option{nil, {WithStrategy(Greedy)}} {
		h, err := NewHandle("q1", db, rxl.Query1Source, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if h.Strategy() != Greedy {
			t.Errorf("NewHandle(%d options) strategy = %v, want Greedy", len(opts), h.Strategy())
		}
	}
}
