package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"sync"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/obs"
	"silkroute/internal/value"
)

// Server serves wire-protocol requests from an engine database. A
// connection carries a sequence of requests, one at a time, so pooled
// clients can reuse it instead of dialing per request. The zero value plus
// a DB is a working server.
type Server struct {
	DB *engine.Database

	// RowFault, when set, is consulted once per query: a non-nil returned
	// fault is then called before each result row with the count of rows
	// already sent, and a non-nil fault error kills the connection at
	// exactly that row — every earlier row is flushed first, so the client
	// observes a clean prefix followed by a transport failure. This is the
	// fault-injection hook the chaos harness uses to cut streams at a
	// deterministic row; it costs one nil check per query when unset.
	RowFault func(sql string) func(rowIndex int64) error

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]*srvConn
	shutdown  bool
}

// minServableBudget is the smallest deadline budget the server will accept
// for a budgeted request: below it, even the cheapest execute-and-stream
// cannot finish in time, so the request is refused with CodeDeadline
// before the engine runs — honoring the contract that an expired budget
// never starts backend work.
const minServableBudget = time.Millisecond

// srvConn is the server's bookkeeping for one connection.
type srvConn struct {
	active bool               // a request is in flight
	cancel context.CancelFunc // cancels the in-flight request's context
}

// Serve accepts connections until the listener closes or the server shuts
// down; after Shutdown it returns ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	if !s.trackListener(l) {
		l.Close()
		return ErrServerClosed
	}
	defer s.forgetListener(l)
	for {
		conn, err := l.Accept()
		if err != nil {
			if s.shuttingDown() {
				return ErrServerClosed
			}
			return err
		}
		go s.ServeConn(conn)
	}
}

// Shutdown gracefully drains the server: it stops accepting new
// connections and new requests, closes idle connections, and waits for
// in-flight requests to finish. If ctx ends first, the remaining requests
// are canceled, their connections force-closed, and ctx.Err() returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown = true
	for l := range s.listeners {
		l.Close()
	}
	for conn, st := range s.conns {
		if !st.active {
			conn.Close()
		}
	}
	s.mu.Unlock()

	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for conn, st := range s.conns {
				if st.cancel != nil {
					st.cancel()
				}
				conn.Close()
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-ticker.C:
		}
	}
}

func (s *Server) shuttingDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shutdown
}

func (s *Server) trackListener(l net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return false
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[l] = struct{}{}
	return true
}

func (s *Server) forgetListener(l net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, l)
}

func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]*srvConn)
	}
	s.conns[conn] = &srvConn{}
	return true
}

func (s *Server) forgetConn(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// beginRequest marks the connection active and returns the request's
// context, or ok=false when the server is draining and the request must be
// refused.
func (s *Server) beginRequest(conn net.Conn) (context.Context, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return nil, false
	}
	st, ok := s.conns[conn]
	if !ok {
		return nil, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	st.active, st.cancel = true, cancel
	return ctx, true
}

// endRequest releases the connection's request state.
func (s *Server) endRequest(conn net.Conn) {
	s.mu.Lock()
	st, ok := s.conns[conn]
	var cancel context.CancelFunc
	if ok {
		st.active, cancel, st.cancel = false, st.cancel, nil
	}
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// writeError emits and flushes one coded error frame.
func writeError(bw *bufio.Writer, code Code, msg string) error {
	frame := make([]byte, 0, 2+len(msg))
	frame = append(frame, 'E', byte(code))
	frame = append(frame, msg...)
	if err := writeFrame(bw, frame); err != nil {
		return err
	}
	return bw.Flush()
}

// errCode classifies an engine error for the wire.
func errCode(err error) Code {
	switch {
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	}
	return CodeSQL
}

// ServeConn handles one connection: a sequence of requests, each decoded
// by parseRequest and dispatched on its op alone.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	if !s.trackConn(conn) {
		return
	}
	defer s.forgetConn(conn)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriterSize(conn, 64<<10)

	// Both buffers live as long as the connection: requests are read into
	// reqBuf and every query's row batches are encoded into batch, so batch
	// grows to its flush size once per connection, not once per query.
	var reqBuf, batch []byte
	for {
		if s.shuttingDown() {
			return
		}
		frame, err := readFrame(br, reqBuf, maxRequestFrame)
		if errors.Is(err, errFrameTooLarge) {
			// Refused from the length prefix alone. The payload is unread,
			// so the connection cannot be realigned: answer and close.
			_ = writeError(bw, CodeBadRequest, err.Error())
			return
		}
		if err != nil || len(frame) == 0 {
			return // client went away between requests
		}
		reqBuf = frame

		ctx, ok := s.beginRequest(conn)
		if !ok {
			_ = writeError(bw, CodeShutdown, "server draining")
			return
		}

		req, perr := parseRequest(frame)
		// A budgeted request caps the server's own work at what the caller
		// can still use; a budget too small to execute anything and stream
		// it back is refused without touching the engine.
		budgeted := req.flags&flagBudgeted != 0
		spent := budgeted && req.budget < minServableBudget
		cancel := context.CancelFunc(func() {})
		if budgeted && !spent {
			ctx, cancel = context.WithTimeout(ctx, req.budget)
			d, _ := ctx.Deadline()
			conn.SetDeadline(d)
		}

		m := obs.M()
		if m != nil {
			m.Server.Requests.Inc()
			m.Server.InFlight.Inc()
		}
		start := time.Now()
		// keep: the response went out whole, so the connection is still
		// request-aligned. A refusal of a frame that was read whole is too.
		var keep bool
		var bad *Error
		switch {
		case errors.As(perr, &bad):
			keep = writeError(bw, bad.Code, bad.Msg) == nil
		case spent:
			if m != nil {
				m.Server.BudgetRefused.Inc()
			}
			keep = writeError(bw, CodeDeadline, "deadline budget spent") == nil
		default:
			sctx, span := obs.StartRemoteSpan(ctx, ops[req.op].serverSpan, req.trace, req.parent)
			span.SetDetail(req.sql)
			switch req.op {
			case opQuery:
				keep = s.serveQuery(sctx, bw, req.sql, &batch)
			case opEstimate:
				keep = s.serveEstimate(bw, req.sql)
			case opEpoch:
				keep = s.serveEpoch(bw)
			}
			span.End()
		}
		if m != nil {
			m.Server.InFlight.Dec()
			m.Server.RequestSeconds.Observe(time.Since(start))
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				m.Server.DeadlinesExceeded.Inc()
			}
		}
		cancel()
		s.endRequest(conn)
		if !keep {
			return
		}
		conn.SetDeadline(time.Time{}) // a budgeted request set one
	}
}

// serveQuery executes one SQL request and streams the result, encoding
// its row batches into *buf, the connection's buffer. It reports whether
// the connection is still request-aligned and worth keeping.
func (s *Server) serveQuery(ctx context.Context, bw *bufio.Writer, sqlText string, buf *[]byte) bool {
	var rowsSent, bytesSent int64
	defer func() {
		if m := obs.M(); m != nil {
			m.Server.RowsSent.Add(rowsSent)
			m.Server.BytesSent.Add(bytesSent)
		}
	}()
	res, err := s.DB.ExecuteContext(ctx, sqlText)
	if err != nil {
		return writeError(bw, errCode(err), err.Error()) == nil
	}

	// Status frame with column names, flushed immediately: the query has
	// executed, and the client's Query() measures time to this frame, so it
	// must not sit in the write buffer behind row batches.
	hdr := []byte{'C'}
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(res.Columns)))
	for _, c := range res.Columns {
		hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(c)))
		hdr = append(hdr, c...)
	}
	if err := writeFrame(bw, hdr); err != nil {
		return false
	}
	if err := bw.Flush(); err != nil {
		return false
	}

	var fault func(int64) error
	if s.RowFault != nil {
		fault = s.RowFault(sqlText)
	}

	// Rows ride in batch frames; the encode buffer is reused throughout.
	// Once streaming has begun there is no in-band way to signal an error,
	// so a canceled request just drops the connection — the client sees a
	// read failure and maps it through its own context.
	batch := (*buf)[:0]
	defer func() { *buf = batch }()
	batched := 0
	for {
		row, ok := res.Next()
		if !ok {
			break
		}
		if fault != nil {
			if err := fault(rowsSent + int64(batched)); err != nil {
				// Deterministic cut: deliver every row before the fault
				// point, then die. Flushing the pending batch first makes
				// "cut at row N" mean the client decodes exactly N rows.
				if batched > 0 && writeFrame(bw, batch) == nil {
					rowsSent += int64(batched)
					bytesSent += int64(len(batch))
				}
				bw.Flush()
				return false
			}
		}
		batch = value.EncodeRow(batch, row)
		batched++
		if batched >= batchMaxRows || len(batch) >= batchFlushBytes {
			if ctx.Err() != nil {
				return false
			}
			if err := writeFrame(bw, batch); err != nil {
				return false
			}
			rowsSent += int64(batched)
			bytesSent += int64(len(batch))
			batch = batch[:0]
			batched = 0
		}
	}
	if batched > 0 {
		if err := writeFrame(bw, batch); err != nil {
			return false
		}
		rowsSent += int64(batched)
		bytesSent += int64(len(batch))
	}
	if err := writeFrame(bw, nil); err != nil { // terminator
		return false
	}
	return bw.Flush() == nil
}

// serveEstimate answers an optimizer estimate request; it reports whether
// the connection stays usable.
func (s *Server) serveEstimate(bw *bufio.Writer, sql string) bool {
	est, err := s.DB.EstimateSQL(sql)
	if err != nil {
		return writeError(bw, errCode(err), err.Error()) == nil
	}
	payload := []byte{'V'}
	payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(est.Cost))
	payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(est.Rows))
	payload = binary.BigEndian.AppendUint64(payload, math.Float64bits(est.Width))
	if err := writeFrame(bw, payload); err != nil {
		return false
	}
	return bw.Flush() == nil
}

// serveEpoch answers a stats-epoch probe: the client-side fragment cache
// validates remote freshness with it. One uint64, no SQL — the cheapest
// request the protocol has.
func (s *Server) serveEpoch(bw *bufio.Writer) bool {
	payload := []byte{'V'}
	payload = binary.BigEndian.AppendUint64(payload, uint64(s.DB.StatsEpoch()))
	if err := writeFrame(bw, payload); err != nil {
		return false
	}
	return bw.Flush() == nil
}
