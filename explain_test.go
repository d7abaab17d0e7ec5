package silkroute

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"silkroute/internal/rxl"
)

// TestExplainMatchesGreedyExecution pins the Explain contract on the
// paper's orders view (Query 2): the mandatory and optional edge sets
// Explain names are exactly the ones a Materialize with the Greedy
// strategy executes.
func TestExplainMatchesGreedyExecution(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	v, err := ParseView(db, rxl.Query2Source)
	if err != nil {
		t.Fatal(err)
	}
	e, err := v.Explain(ctx, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Materialize(ctx, io.Discard, Greedy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.MandatoryEdges, rep.GreedyMandatory) {
		t.Errorf("mandatory edges: Explain %v, Materialize %v", e.MandatoryEdges, rep.GreedyMandatory)
	}
	if !reflect.DeepEqual(e.OptionalEdges, rep.GreedyOptional) {
		t.Errorf("optional edges: Explain %v, Materialize %v", e.OptionalEdges, rep.GreedyOptional)
	}
	if !reflect.DeepEqual(e.SQL, rep.SQL) {
		t.Errorf("SQL: Explain %v, Materialize %v", e.SQL, rep.SQL)
	}
	if e.EstimateRequests <= 0 {
		t.Error("Explain(Greedy) reported no estimate requests")
	}
	out := e.String()
	for _, want := range []string{"strategy: greedy", "edges:", "estimate requests:", "streams:"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explanation.String() missing %q:\n%s", want, out)
		}
	}
}

// TestExplainFixedStrategies checks the single-plan strategies: Unified
// keeps every edge in one stream, FullyPartitioned cuts every edge into
// one stream per node, and neither costs anything.
func TestExplainFixedStrategies(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	v, err := ParseView(db, rxl.Query2Source)
	if err != nil {
		t.Fatal(err)
	}
	u, err := v.Explain(ctx, Unified)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.MandatoryEdges) != v.EdgeCount() || len(u.OptionalEdges) != 0 || len(u.SQL) != 1 {
		t.Errorf("unified: %d mandatory, %d optional, %d streams", len(u.MandatoryEdges), len(u.OptionalEdges), len(u.SQL))
	}
	fp, err := v.Explain(ctx, FullyPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.MandatoryEdges) != 0 || len(fp.SQL) != v.NodeCount() {
		t.Errorf("fully-partitioned: %d mandatory, %d streams (want 0, %d)", len(fp.MandatoryEdges), len(fp.SQL), v.NodeCount())
	}
	if u.EstimateRequests != 0 || fp.EstimateRequests != 0 {
		t.Error("fixed strategies made estimate requests")
	}
}

// TestStreamStatsLocal asserts the per-stream breakdown agrees with the
// aggregate report for a local partitioned run.
func TestStreamStatsLocal(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	v, err := ParseView(db, rxl.Query1Source)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := v.Materialize(ctx, io.Discard, FullyPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StreamStats) != rep.Streams {
		t.Fatalf("StreamStats has %d entries, report says %d streams", len(rep.StreamStats), rep.Streams)
	}
	var rows int64
	for i, st := range rep.StreamStats {
		if st.SQL != rep.SQL[i] {
			t.Errorf("stream %d SQL mismatch", i)
		}
		if st.WallTime < st.QueryTime {
			t.Errorf("stream %d wall time %v below query time %v", i, st.WallTime, st.QueryTime)
		}
		rows += st.Rows
	}
	if rows != rep.Rows {
		t.Errorf("per-stream rows sum to %d, report says %d", rows, rep.Rows)
	}
}

// TestStreamStatsRemote asserts remote runs also fill byte counts, which
// only exist on the wire path.
func TestStreamStatsRemote(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	remote := mustDial(t, Single(l.Addr().String()))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, tpchSourceDescription(t), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := rv.Materialize(ctx, &buf, FullyPartitioned)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.StreamStats) != rep.Streams {
		t.Fatalf("StreamStats has %d entries, report says %d streams", len(rep.StreamStats), rep.Streams)
	}
	var rows, bytesSum int64
	for _, st := range rep.StreamStats {
		rows += st.Rows
		bytesSum += st.Bytes
	}
	if rows != rep.Rows {
		t.Errorf("per-stream rows sum to %d, report says %d", rows, rep.Rows)
	}
	if bytesSum <= 0 {
		t.Error("remote run transferred no bytes according to StreamStats")
	}
}

// TestParseStrategyNearMiss checks typos get a suggestion while unrelated
// words keep the full listing.
func TestParseStrategyNearMiss(t *testing.T) {
	for typo, want := range map[string]string{
		"greedly":           `"greedy"`,
		"unifed":            `"unified"`,
		"outer-unions":      `"outer-union"`,
		"fully-partitioend": `"fully-partitioned"`,
		"unified-ctes":      `"unified-cte"`,
	} {
		_, err := ParseStrategy(typo)
		if err == nil {
			t.Fatalf("ParseStrategy(%q) accepted", typo)
		}
		if !strings.Contains(err.Error(), "did you mean "+want) {
			t.Errorf("ParseStrategy(%q) = %q, want suggestion of %s", typo, err, want)
		}
	}
	_, err := ParseStrategy("bananas")
	if err == nil || strings.Contains(err.Error(), "did you mean") {
		t.Errorf("ParseStrategy(bananas) = %v, want plain listing without a suggestion", err)
	}
}

// TestStrategyRoundTrip is the String/ParseStrategy round-trip property:
// every strategy parses back from its name, in any case mixture.
func TestStrategyRoundTrip(t *testing.T) {
	for _, s := range Strategies() {
		name := s.String()
		for _, variant := range []string{name, strings.ToUpper(name), strings.ToUpper(name[:1]) + name[1:]} {
			got, err := ParseStrategy(variant)
			if err != nil {
				t.Errorf("ParseStrategy(%q): %v", variant, err)
			} else if got != s {
				t.Errorf("ParseStrategy(%q) = %v, want %v", variant, got, s)
			}
		}
	}
	if !strings.HasPrefix(Strategy(99).String(), "Strategy(") {
		t.Errorf("unknown strategy String() = %q", Strategy(99))
	}
}
