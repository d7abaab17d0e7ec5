package silkroute

// Facade-level coverage for the context/option API: strategy parsing,
// cancellation and deadlines through Materialize, graceful server
// shutdown, option handling, and the LoadCSVDir error path.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"silkroute/internal/rxl"
)

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Unified, OuterUnion, FullyPartitioned, Greedy} {
		got, err := ParseStrategy(s.String())
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("ParseStrategy(%q) = %v, want %v", s.String(), got, s)
		}
	}
	// Matching is case-insensitive, for command-line ergonomics.
	if got, err := ParseStrategy("Outer-Union"); err != nil || got != OuterUnion {
		t.Errorf("ParseStrategy(\"Outer-Union\") = %v, %v", got, err)
	}
	for _, name := range []string{"speculative", "unified-cte"} {
		if _, err := ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy accepted the unknown name %q", name)
		}
	}
}

func TestLoadCSVDirReportsStatErrors(t *testing.T) {
	// Missing files are fine: the directory may hold a subset of relations.
	db := OpenTPCH(0, 1)
	if err := db.LoadCSVDir(t.TempDir()); err != nil {
		t.Fatalf("empty directory: %v", err)
	}

	// A stat failure that is NOT fs.ErrNotExist (here: a symlink loop)
	// must surface, not be silently skipped as if the file were absent.
	dir := t.TempDir()
	loop := filepath.Join(dir, "Supplier.csv")
	if err := os.Symlink(loop, loop); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if err := db.LoadCSVDir(dir); err == nil {
		t.Error("LoadCSVDir swallowed a non-NotExist stat error")
	}
}

func TestMaterializePreCanceled(t *testing.T) {
	v, err := ParseView(OpenTPCH(0.001, 42), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := v.Materialize(cctx, io.Discard, Unified); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled Materialize = %v, want context.Canceled", err)
	}
}

func TestMaterializeDeadlineAgainstStalledServer(t *testing.T) {
	// The acceptance scenario: the wire server stalls mid-handshake. The
	// middleware must give up at its deadline instead of hanging forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) // read requests, never answer
		}
	}()

	remote := mustDial(t, Single(l.Addr().String()))
	defer remote.Close()
	rv, err := ParseRemoteView(remote, TPCHSourceDescription(), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rv.Materialize(cctx, io.Discard, Unified)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Materialize against stalled server succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled-server Materialize = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	if n := remote.IdleConns(); n != 0 {
		t.Errorf("IdleConns after deadline = %d, want 0", n)
	}
}

func TestRemoteParallelSerialEquivalenceWithPool(t *testing.T) {
	db := OpenTPCH(0.002, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go db.Serve(l)

	remote := mustDial(t, Single(l.Addr().String()))
	defer remote.Close()

	serialView, err := ParseRemoteView(remote, TPCHSourceDescription(), rxl.Query1Source, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	if _, err := serialView.Materialize(ctx, &serial, FullyPartitioned); err != nil {
		t.Fatal(err)
	}

	parView, err := ParseRemoteView(remote, TPCHSourceDescription(), rxl.Query1Source, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	var par bytes.Buffer
	if _, err := parView.Materialize(ctx, &par, FullyPartitioned); err != nil {
		t.Fatal(err)
	}

	if serial.Len() == 0 || serial.String() != par.String() {
		t.Errorf("parallel remote document differs from serial: %d vs %d bytes", par.Len(), serial.Len())
	}
	// The pooled client reused connections; everything came back idle.
	if n := remote.IdleConns(); n == 0 {
		t.Error("no pooled connections after clean materializations")
	}
}

func TestServeContextShutsDownCleanly(t *testing.T) {
	db := OpenTPCH(0.001, 42)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- db.ServeContext(sctx, l) }()

	// The server answers while running...
	remote := mustDial(t, Single(l.Addr().String()))
	rv, err := ParseRemoteView(remote, TPCHSourceDescription(), rxl.FragmentSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Materialize(ctx, io.Discard, Unified); err != nil {
		t.Fatal(err)
	}
	remote.Close()

	// ...and drains cleanly when its context ends.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("ServeContext = %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ServeContext did not return after cancellation")
	}
}

func TestOptionsConfigureView(t *testing.T) {
	db := libraryDB(t)
	const src = `
	from Author $a
	construct <author><name>$a.name</name></author>`
	v, err := ParseView(db, src, WithWrapper("authors"), WithReduce(false), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.wrapper != "authors" || v.reduce || v.parallelism != 2 {
		t.Errorf("options not applied: wrapper=%q reduce=%v parallelism=%d", v.wrapper, v.reduce, v.parallelism)
	}
	var buf bytes.Buffer
	if _, err := v.Materialize(ctx, &buf, Unified); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.HasPrefix(buf.Bytes(), []byte("<authors>")) {
		t.Errorf("wrapper option ignored in output: %.60s", out)
	}
}

func TestUnsupportedPlanTypedError(t *testing.T) {
	s := librarySchema(t)
	s.SetCapabilities(false, false) // neither outer join nor outer union
	db := NewDB(s)
	if err := db.Insert("Author", 1, "Ada", 0.1); err != nil {
		t.Fatal(err)
	}
	const src = `
	from Author $a
	construct
	<author>
	  <name>$a.name</name>
	  { from Book $b
	    where $b.authorid = $a.authorid
	    construct <book><title>$b.title</title></book> }
	</author>`
	v, err := ParseView(db, src)
	if err != nil {
		t.Fatal(err)
	}
	// The unified plan keeps the '*' book edge, needing a left outer join
	// the target lacks; the failure is the typed sentinel now.
	if _, err := v.Materialize(ctx, io.Discard, Unified); !errors.Is(err, ErrUnsupportedPlan) {
		t.Errorf("impermissible plan = %v, want ErrUnsupportedPlan", err)
	}
}
