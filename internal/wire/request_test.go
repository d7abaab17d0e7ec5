package wire

// The request header: one table over every op × flag shape, the malformed
// frames the decoder must refuse, a fuzz target over the decoder, and the
// request-frame size bound.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// headerShapes is every op × traced × budgeted combination.
func headerShapes() []request {
	var out []request
	for _, op := range []byte{opQuery, opEstimate, opEpoch} {
		for flags := byte(0); flags <= flagsKnown; flags++ {
			q := request{op: op, flags: flags}
			if op != opEpoch {
				q.sql = seqQuery
			}
			if flags&flagTraced != 0 {
				q.trace, q.parent = 0x0102030405060708, 0x1112131415161718
			}
			if flags&flagBudgeted != 0 {
				q.budget = 1500 * time.Millisecond
			}
			out = append(out, q)
		}
	}
	return out
}

// malformedFrames is every way a header can be wrong: nothing, half a
// header, an unknown op, an unknown flag bit, and each fixed field cut at
// every possible point.
func malformedFrames() [][]byte {
	out := [][]byte{{}, {opQuery}, {'Z', 0}, {'Z', 'x'}, {opQuery, flagsKnown + 1}, {opEpoch, 0x80}}
	for _, q := range headerShapes() {
		q.sql = ""
		frame := appendRequest(nil, q)
		for n := 2; n < len(frame); n++ {
			out = append(out, frame[:n])
		}
	}
	return out
}

func TestRequestHeaderRoundTrip(t *testing.T) {
	shapes := headerShapes()
	if len(shapes) != 3*2*2 {
		t.Fatalf("table has %d shapes, want 12", len(shapes))
	}
	for _, want := range shapes {
		frame := appendRequest(nil, want)
		wantLen := 2 + len(want.sql)
		if want.flags&flagTraced != 0 {
			wantLen += 16
		}
		if want.flags&flagBudgeted != 0 {
			wantLen += 8
		}
		if len(frame) != wantLen {
			t.Errorf("%q flags %02b: frame has %d bytes, want %d", want.op, want.flags, len(frame), wantLen)
		}
		got, err := parseRequest(frame)
		if err != nil {
			t.Errorf("%q flags %02b: parse: %v", want.op, want.flags, err)
		} else if got != want {
			t.Errorf("%q flags %02b: round trip = %+v, want %+v", want.op, want.flags, got, want)
		}
	}
}

func TestParseRequestRejectsMalformed(t *testing.T) {
	for _, frame := range malformedFrames() {
		_, err := parseRequest(frame)
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeBadRequest {
			t.Errorf("parseRequest(%q) error = %v, want CodeBadRequest", frame, err)
		}
	}
}

// FuzzParseRequest: the decoder must never panic, must answer every
// failure with CodeBadRequest, must not invent bytes (the SQL it returns is
// a suffix of the frame), and must agree with the encoder on everything it
// accepts.
func FuzzParseRequest(f *testing.F) {
	for _, q := range headerShapes() {
		f.Add(appendRequest(nil, q))
	}
	for _, frame := range malformedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		q, err := parseRequest(frame)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) || se.Code != CodeBadRequest {
				t.Fatalf("error = %v, want CodeBadRequest", err)
			}
			return
		}
		if len(q.sql) > len(frame)-2 || string(frame[len(frame)-len(q.sql):]) != q.sql {
			t.Fatalf("sql %q is not a suffix of the frame", q.sql)
		}
		if again := appendRequest(nil, q); string(again) != string(frame) {
			t.Fatalf("re-encoded frame %q differs from input %q", again, frame)
		}
	})
}

// sendRaw writes one frame and returns the response frame.
func sendRaw(t *testing.T, conn net.Conn, br *bufio.Reader, payload []byte) []byte {
	t.Helper()
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(br, nil, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMalformedRequestKeepsConnectionAligned: a frame that was read whole
// and refused costs the connection nothing — the next request on it is
// served as if the refusal never happened.
func TestMalformedRequestKeepsConnectionAligned(t *testing.T) {
	srv := &Server{DB: seqDB(t, 10)}
	c1, c2 := net.Pipe()
	defer c1.Close()
	go srv.ServeConn(c2)
	br := bufio.NewReader(c1)

	for _, frame := range malformedFrames() {
		if len(frame) == 0 {
			continue // an empty frame is the client hanging up
		}
		resp := sendRaw(t, c1, br, frame)
		if len(resp) < 2 || resp[0] != 'E' || Code(resp[1]) != CodeBadRequest {
			t.Fatalf("frame %q answered %q, want a CodeBadRequest error frame", frame, resp)
		}
	}
	resp := sendRaw(t, c1, br, appendRequest(nil, request{op: opEpoch}))
	if len(resp) != 9 || resp[0] != 'V' {
		t.Fatalf("follow-up epoch probe answered %q, want a value frame", resp)
	}
}

// TestOversizeRequestRefused: a 4-byte length prefix is all a hostile peer
// needs to send. One claiming 32 MB must get the typed refusal and a closed
// connection, and the server must not have allocated the claimed payload.
func TestOversizeRequestRefused(t *testing.T) {
	const claimed = 32 << 20
	srv := &Server{DB: seqDB(t, 10)}
	c1, c2 := net.Pipe()
	defer c1.Close()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(c2)
		close(done)
	}()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], claimed)
	if _, err := c1.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c1)
	resp, err := readFrame(br, nil, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) < 2 || resp[0] != 'E' || Code(resp[1]) != CodeBadRequest {
		t.Fatalf("oversize header answered %q, want a CodeBadRequest error frame", resp)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("read after refusal = %v, want EOF (connection closed)", err)
	}
	<-done
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= claimed {
		t.Fatalf("server allocated %d bytes answering a %d-byte claim", grew, claimed)
	}

	// The bound is exact: a frame of maxRequestFrame bytes is read (here
	// it ends early), one byte more is refused from the prefix.
	binary.BigEndian.PutUint32(hdr[:], maxRequestFrame)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil, maxRequestFrame); !errors.Is(err, io.EOF) {
		t.Fatalf("frame of maxRequestFrame bytes: %v, want EOF reading the payload", err)
	}
	binary.BigEndian.PutUint32(hdr[:], maxRequestFrame+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil, maxRequestFrame); !errors.Is(err, errFrameTooLarge) {
		t.Fatalf("frame of maxRequestFrame+1 bytes: %v, want errFrameTooLarge", err)
	}
}
