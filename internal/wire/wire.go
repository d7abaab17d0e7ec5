// Package wire implements the tuple-stream protocol between the SilkRoute
// middleware and the target database — the reproduction's stand-in for
// JDBC.
//
// The protocol matters to the experiments: the paper's "total time"
// includes binding and transferring every tuple to the client, and its
// results hinge on the fact that wide, null-padded tuples (outer-union
// plans) and redundantly repeated tuples (fully partitioned plans) cost
// real transfer time. Every row a query produces is encoded on the server,
// shipped over a net.Conn, and decoded ("bound") on the client, so those
// costs are genuinely paid rather than modeled.
//
// Framing: every frame is a 4-byte big-endian length followed by payload.
// A request is one frame with one header shape (see request):
//
//	op byte | flags byte | [trace: 16 bytes] | [budget: 8 bytes] | SQL text
//
//	op            SQL   response
//	'Q' query     yes   'C' + uint16 column count + length-prefixed names
//	                    (flushed immediately, so time-to-first-row stays
//	                    honest), then row-batch frames — each the
//	                    concatenated encodings of up to batchMaxRows rows or
//	                    batchFlushBytes bytes — then an empty terminator frame
//	'E' estimate  yes   'V' + three big-endian float64 (cost, rows, width):
//	                    the optimizer oracle of §5
//	'P' epoch     no    'V' + one big-endian uint64, the database's write
//	                    counter; the fragment cache validates cached XML
//	                    against it — a failed probe means "run cold", not
//	                    "serve stale"
//
//	flag          field
//	traced   0x1  8-byte trace ID + 8-byte parent span ID, so the server's
//	              spans stitch under the client's request span in one trace;
//	              set whenever observability is enabled
//	budgeted 0x2  the caller's remaining deadline budget in nanoseconds, set
//	              whenever the request's context has a deadline; the
//	              server caps its request context at it and refuses a
//	              budget below minServableBudget with CodeDeadline before
//	              the engine runs
//
// Any op answers 'E' + code byte + message on failure. An unknown op, an
// unknown flag bit, or a field cut short is CodeBadRequest and leaves the
// connection request-aligned; a request frame longer than maxRequestFrame
// is refused from its length prefix alone and the connection closed.
//
// The error frame's code byte carries a Code, so typed failures
// (cancellation, deadline, shutdown) survive errors.Is across the network
// boundary.
//
// The value encoding is self-delimiting, so a batch frame needs no row
// count; a frame with exactly one row is the degenerate batch, which keeps
// the framing compatible with one-row-per-frame peers. The client decodes a
// frame whole, into one slab of values, and enforces the server's bound: a
// frame whose values are not whole rows, or that holds more than
// batchMaxRows rows, is ErrBadResponse, so a hostile frame cannot make the
// client allocate more than one batch's slab. Batching amortizes the
// per-frame header, syscall and allocations across rows — the per-tuple
// bind cost the paper measures is the decode, which is still paid per
// column of every row.
//
// A connection carries a sequence of requests, one at a time: the client
// keeps drained connections in a bounded pool and reuses them, so a plan
// with k tuple streams holds k connections concurrently open (exactly as
// the paper's client opened k JDBC result sets) without paying a dial per
// query. Connections whose stream was abandoned mid-flight are closed, not
// pooled.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"silkroute/internal/obs"
)

// maxFrame bounds a response frame; a row batch larger than this indicates
// a bug.
const maxFrame = 64 << 20

// maxRequestFrame bounds a request frame, so a hostile length prefix cannot
// make the server allocate before any SQL is seen, and a response's status
// frame (a column header, a 25-byte estimate, a 9-byte epoch or an error),
// so a hostile peer cannot make the client allocate either. The benchmark's
// sqlgen.sql_bytes is 3 450 for a whole ten-stream plan, and the largest
// single statement the fixtures generate is 10 424 bytes (Query 1's
// unreduced outer-union plan), so 1 MiB leaves hundredfold headroom.
const maxRequestFrame = 1 << 20

// errFrameTooLarge reports a length prefix above the reader's limit; the
// payload was not read, so the connection is no longer frame-aligned.
var errFrameTooLarge = errors.New("wire: frame exceeds limit")

// Row-batch flush policy: a batch frame is emitted when it holds
// batchMaxRows rows or batchFlushBytes of payload, whichever comes first.
// batchMaxRows is also the protocol's bound: the client refuses a frame of
// more rows.
const (
	batchMaxRows    = 256
	batchFlushBytes = 32 << 10
)

// writeFrame buffers one frame. The length prefix is built in w's free
// space: a local array passed to w.Write would escape to the heap, one
// allocation per frame.
func writeFrame(w *bufio.Writer, payload []byte) error {
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into buf (grown when too small). A length
// prefix above limit fails with errFrameTooLarge before anything is
// allocated for the payload.
func readFrame(r io.Reader, buf []byte, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("%w: %d > %d bytes", errFrameTooLarge, n, limit)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Request ops: what the server is asked to do. The op alone selects the
// handler and the response shape.
const (
	opQuery    = 'Q'
	opEstimate = 'E'
	opEpoch    = 'P'
)

// ops holds each op's properties; an op byte absent from it is unknown.
var ops = map[byte]struct {
	name       string // in error text
	clientSpan string
	serverSpan string
}{
	opQuery:    {"query", "wire.client.query", "wire.server.query"},
	opEstimate: {"estimate", "wire.client.estimate", "wire.server.estimate"},
	opEpoch:    {"epoch", "wire.client.epoch", "wire.server.epoch"},
}

// Request flags: which optional fixed fields follow the flags byte, in bit
// order.
const (
	flagTraced   = 1 << 0
	flagBudgeted = 1 << 1
	flagsKnown   = flagTraced | flagBudgeted
)

// request is the one request header. Fields whose flag is clear are zero.
type request struct {
	op     byte
	flags  byte
	trace  obs.TraceID   // flagTraced
	parent obs.SpanID    // flagTraced
	budget time.Duration // flagBudgeted
	sql    string        // empty for opEpoch
}

// newRequest builds the header of one request under span. A stream's
// reopens reuse the stream's trace, so a healed stream still forms one
// trace.
func newRequest(op byte, span *obs.Span, sql string) request {
	req := request{op: op, sql: sql}
	if span != nil {
		req.flags, req.trace, req.parent = flagTraced, span.Trace, span.ID
	}
	return req
}

// withBudget returns the request carrying budget b; b <= 0 (no deadline)
// leaves it unbudgeted.
func (q request) withBudget(b time.Duration) request {
	if b > 0 {
		q.flags, q.budget = q.flags|flagBudgeted, b
	}
	return q
}

// appendRequest appends the request's frame payload to dst.
func appendRequest(dst []byte, q request) []byte {
	dst = append(dst, q.op, q.flags)
	if q.flags&flagTraced != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.trace))
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.parent))
	}
	if q.flags&flagBudgeted != 0 {
		dst = binary.BigEndian.AppendUint64(dst, uint64(q.budget))
	}
	return append(dst, q.sql...)
}

// parseRequest decodes a request frame's payload. It is pure, and every
// failure is a CodeBadRequest *Error: the header holds no lengths, so a
// malformed frame can cost no more than the bytes already read.
func parseRequest(frame []byte) (request, error) {
	bad := func(msg string) (request, error) {
		return request{}, &Error{Code: CodeBadRequest, Msg: msg}
	}
	if len(frame) < 2 {
		return bad("truncated request header")
	}
	q := request{op: frame[0], flags: frame[1]}
	rest := frame[2:]
	if _, ok := ops[q.op]; !ok {
		return bad("unknown request op")
	}
	if q.flags&^flagsKnown != 0 {
		return bad("unknown request flag")
	}
	if q.flags&flagTraced != 0 {
		if len(rest) < 16 {
			return bad("truncated trace field")
		}
		q.trace = obs.TraceID(binary.BigEndian.Uint64(rest[:8]))
		q.parent = obs.SpanID(binary.BigEndian.Uint64(rest[8:16]))
		rest = rest[16:]
	}
	if q.flags&flagBudgeted != 0 {
		if len(rest) < 8 {
			return bad("truncated budget field")
		}
		q.budget = time.Duration(binary.BigEndian.Uint64(rest[:8]))
		rest = rest[8:]
	}
	q.sql = string(rest)
	return q, nil
}
