package plan

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"silkroute/internal/engine"
	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

func buildTree(t *testing.T, db *engine.Database, source string) *viewtree.Tree {
	t.Helper()
	q, err := rxl.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := viewtree.Build(q, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestParallelSerialEquivalence is the correctness property the parallel
// executor must preserve: for Query 1 and Query 2 under every strategy, the
// document produced with Parallelism 8 is byte-identical to Parallelism 1,
// and both match the pre-parallelism default.
func TestParallelSerialEquivalence(t *testing.T) {
	db := tpch.Generate(0.0004, 11)
	for _, src := range []struct {
		name   string
		source string
	}{
		{"Q1", rxl.Query1Source},
		{"Q2", rxl.Query2Source},
	} {
		tree := buildTree(t, db, src.source)
		plans := []*Plan{
			Unified(tree, false),
			Unified(tree, true),
			UnifiedOuterUnion(tree, false),
			FullyPartitioned(tree),
			FromBits(tree, 0b101010101, false),
		}
		for pi, base := range plans {
			serial := *base
			serial.Parallelism = 1
			var serialBuf bytes.Buffer
			mSerial, err := ExecuteDirect(ctx, db, &serial, &serialBuf)
			if err != nil {
				t.Fatalf("%s plan %d serial: %v", src.name, pi, err)
			}

			parallel := *base
			parallel.Parallelism = 8
			var parBuf bytes.Buffer
			mPar, err := ExecuteDirect(ctx, db, &parallel, &parBuf)
			if err != nil {
				t.Fatalf("%s plan %d parallel: %v", src.name, pi, err)
			}

			if !bytes.Equal(serialBuf.Bytes(), parBuf.Bytes()) {
				t.Errorf("%s plan %d (%d streams): parallel document differs from serial (lengths %d vs %d)",
					src.name, pi, base.NumStreams(), parBuf.Len(), serialBuf.Len())
			}
			if mSerial.Streams != mPar.Streams || mSerial.Rows != mPar.Rows {
				t.Errorf("%s plan %d: metrics diverge: serial %+v parallel %+v",
					src.name, pi, mSerial, mPar)
			}
			if mPar.QueryTime <= 0 || mSerial.QueryTime <= 0 {
				t.Errorf("%s plan %d: QueryTime not recorded: serial %v parallel %v",
					src.name, pi, mSerial.QueryTime, mPar.QueryTime)
			}
		}
	}
}

// TestParallelismDefaultMatchesSerial checks the zero value (GOMAXPROCS
// workers) still produces the reference document — the knob must be safe to
// leave unset everywhere.
func TestParallelismDefaultMatchesSerial(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	want, _ := runPlan(t, db, Unified(tree, false))
	p := FullyPartitioned(tree) // Parallelism zero value
	got, m := runPlan(t, db, p)
	if got != want {
		t.Errorf("default-parallelism document differs:\n got: %s\nwant: %s", got, want)
	}
	if m.QueryTime <= 0 {
		t.Errorf("QueryTime = %v", m.QueryTime)
	}
}

// TestParallelErrorReporting: a failing stream must surface its error with
// a stream index, not hang or panic, at any parallelism. Running the plan
// against a database whose schema lacks the view tree's relations makes
// every stream fail at table lookup.
func TestParallelErrorReporting(t *testing.T) {
	tree := fragmentTree(t)
	hollow := engine.NewDatabase(schema.New())
	for _, par := range []int{1, 4} {
		p := FullyPartitioned(tree)
		p.Parallelism = par
		var buf bytes.Buffer
		if _, err := ExecuteDirect(ctx, hollow, p, &buf); err == nil {
			t.Errorf("parallelism %d: execution against hollow database succeeded", par)
		} else if !strings.Contains(err.Error(), "stream") {
			t.Errorf("parallelism %d: error lacks stream index: %v", par, err)
		}
	}
}

// countingConn wraps a net.Conn and signals when it is closed.
type countingConn struct {
	net.Conn
	once   sync.Once
	closed *int
	mu     *sync.Mutex
}

func (c *countingConn) Close() error {
	c.once.Do(func() {
		c.mu.Lock()
		*c.closed++
		c.mu.Unlock()
	})
	return c.Conn.Close()
}

// TestExecuteWireReleasesConnections: every connection a wire execution
// opens must be released — repooled or closed — by the time ExecuteWire
// returns, and closing the client must close the whole pool. The
// regression here was streams left open after tagging.
func TestExecuteWireReleasesConnections(t *testing.T) {
	db := fig8DB(t)
	tree := fragmentTree(t)
	srv := &wire.Server{DB: db}

	var mu sync.Mutex
	opened, closed := 0, 0
	client := wire.NewClient(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		mu.Lock()
		opened++
		mu.Unlock()
		return &countingConn{Conn: c1, closed: &closed, mu: &mu}, nil
	})

	for bits := uint64(0); bits < 4; bits++ {
		var buf bytes.Buffer
		if _, err := ExecuteWire(ctx, client, FromBits(tree, bits, false), &buf); err != nil {
			t.Fatalf("bits=%b: %v", bits, err)
		}
	}

	// Cleanly finished streams go back to the pool; Close drains it.
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if opened == 0 {
		t.Fatal("no connections opened")
	}
	if opened != closed {
		t.Errorf("connection leak: opened %d, closed %d", opened, closed)
	}
}
