package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"silkroute/internal/value"
)

// TestRetainedRowsSurviveLaterFrames: the shard merge and the benchmark's
// traced run keep rows across later Next calls, so a row must never be
// overwritten by a later frame. Drain a multi-frame stream with strings
// over TCP loopback, keep every row, and check them all after EOF.
func TestRetainedRowsSurviveLaterFrames(t *testing.T) {
	const n = 3*batchMaxRows + 17
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	defer l.Close()
	srv := &Server{DB: bigDB(t, n, 1)}
	go srv.Serve(l)
	client := Dial(l.Addr().String())
	defer client.Close()

	rows, err := client.Query(ctx, bigSQL)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, n, 1)
}

// TestAppendToRowKeepsNextRow: a returned row is capacity-limited, so a
// caller appending to it gets a copy and the next row in the same frame
// stays intact.
func TestAppendToRowKeepsNextRow(t *testing.T) {
	rows, err := InProcess(bigDB(t, 10, 1)).Query(ctx, bigSQL)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	first, err := rows.Next()
	if err != nil {
		t.Fatal(err)
	}
	if cap(first) != len(first) {
		t.Errorf("row has capacity %d beyond its %d columns", cap(first), len(first))
	}
	_ = append(first, value.String("clobber"), value.String("clobber"))
	second, err := rows.Next()
	if err != nil {
		t.Fatal(err)
	}
	if second[0].AsInt() != 2 || second[1].AsString() != "row-0002" {
		t.Errorf("row after an append = %v, want [2 row-0002]", second)
	}
}

// TestRowsAllocsPerFrame pins that binding allocates per frame, not per
// row or per string: draining 8 frames' worth of rows over the wire
// allocates at most a few more times per extra frame than draining 2
// (the slab and the string blob; the rest of a query, server side
// included, does not grow with its rows). Decoding row by row would add
// hundreds per frame.
func TestRowsAllocsPerFrame(t *testing.T) {
	allocs := func(frames int) float64 {
		client := InProcess(bigDB(t, frames*batchMaxRows, 1))
		defer client.Close()
		return testing.AllocsPerRun(5, func() {
			rows, err := client.Query(ctx, bigSQL)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, err := rows.Next(); err == io.EOF {
					break
				} else if err != nil {
					t.Fatal(err)
				}
				n++
			}
			if n != frames*batchMaxRows {
				t.Fatalf("drained %d rows, want %d", n, frames*batchMaxRows)
			}
		})
	}
	small, large := allocs(2), allocs(8)
	perFrame := (large - small) / 6
	t.Logf("allocations per query: %v at 2 frames, %v at 8; %.1f per extra frame", small, large, perFrame)
	if perFrame > 4 {
		t.Errorf("%.1f allocations per extra frame (%v at 2 frames, %v at 8), want at most 4", perFrame, small, large)
	}
}

// rawStream opens a query on a fake server that answers with cols column
// names and then the given row frames verbatim, then the terminator.
func rawStream(t *testing.T, cols int, frames ...[]byte) *Rows {
	t.Helper()
	c1, c2 := net.Pipe()
	go func() {
		defer c2.Close()
		if _, err := readFrame(c2, nil, maxRequestFrame); err != nil {
			return
		}
		hdr := binary.BigEndian.AppendUint16([]byte{'C'}, uint16(cols))
		for i := 0; i < cols; i++ {
			hdr = append(binary.BigEndian.AppendUint16(hdr, 1), byte('a'+i))
		}
		bw := bufio.NewWriter(c2)
		for _, f := range append([][]byte{hdr}, append(frames, nil)...) {
			if writeFrame(bw, f) != nil {
				return
			}
		}
		bw.Flush() // fails once the client has given up on the stream
	}()
	client := NewClient(func(context.Context) (net.Conn, error) { return c1, nil })
	t.Cleanup(func() { client.Close() })
	rows, err := client.Query(ctx, "select raw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rows.Close() })
	return rows
}

// TestZeroColumnFrameIsOneRow: zero-column rows encode to nothing, so a
// zero-column stream counts each non-empty frame as one row.
func TestZeroColumnFrameIsOneRow(t *testing.T) {
	rows := rawStream(t, 0, []byte{'N'}, []byte{'x', 'y'}, []byte{'I'})
	n, err := drainToError(rows)
	if err != io.EOF || n != 3 {
		t.Fatalf("zero-column stream: %d rows, %v; want 3 rows and EOF", n, err)
	}
}

// TestRowFrameBounds: the client takes a frame only when its values are
// whole rows and at most batchMaxRows of them, the most a server ever
// batches. Anything else fails the stream with ErrBadResponse before any
// of the frame's rows is delivered.
func TestRowFrameBounds(t *testing.T) {
	rowsFrame := func(n int) []byte { // n rows of (NULL, "s")
		var b []byte
		for i := 0; i < n; i++ {
			b = value.EncodeRow(b, []value.Value{value.Null, value.String("s")})
		}
		return b
	}
	cases := []struct {
		name  string
		frame []byte // followed by a valid one-row frame
		rows  int    // delivered in all
		err   error  // ending the stream
	}{
		{"batchMaxRows rows", rowsFrame(batchMaxRows), batchMaxRows + 1, io.EOF},
		{"one row more than batchMaxRows", rowsFrame(batchMaxRows + 1), 0, ErrBadResponse},
		{"values not whole rows", append(rowsFrame(2), 'N'), 0, ErrBadResponse},
		{"value cut short after whole rows", append(rowsFrame(2), 'I', 0, 0), 0, ErrBadResponse},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n, err := drainToError(rawStream(t, 2, c.frame, rowsFrame(1)))
			if !errors.Is(err, c.err) || n != c.rows {
				t.Fatalf("%d rows, %v; want %d rows and %v", n, err, c.rows, c.err)
			}
		})
	}
}
