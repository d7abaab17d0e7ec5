package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/obs"
	"silkroute/internal/value"
)

// Dialer opens one connection to the target database. The context carries
// the caller's deadline and cancellation; a dialer that can block (TCP)
// should honor it, e.g. via net.Dialer.DialContext.
type Dialer func(ctx context.Context) (net.Conn, error)

// DefaultPoolSize bounds each client's idle-connection pool.
const DefaultPoolSize = 8

// Client issues queries and estimate requests over a bounded pool of
// connections. A connection is dialed on demand, carries one request at a
// time, and returns to the pool once its response has been fully consumed;
// a canceled or failed request closes its connection instead, leaving the
// pool clean. Clients are safe for concurrent use.
type Client struct {
	dial    Dialer
	resume  Resume
	breaker Breaker

	mu     sync.Mutex
	idle   []net.Conn
	closed bool

	// Circuit-breaker state (see breaker.go). One Client talks to one
	// server, so consecutive-failure tracking is client-wide.
	brMu       sync.Mutex
	brState    breakerState
	brFails    int
	brOpenedAt time.Time
	brProbe    bool // a half-open probe is in flight
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// NewClient returns a client over the given dialer.
func NewClient(dial Dialer, opts ...ClientOption) *Client {
	c := &Client{dial: dial}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Dial returns a client for the TCP address, dialing with the request
// context's deadline.
func Dial(addr string, opts ...ClientOption) *Client {
	var d net.Dialer
	return NewClient(func(ctx context.Context) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	}, opts...)
}

// InProcess returns a client wired directly to db through in-memory pipes,
// with one server goroutine per pooled connection.
func InProcess(db *engine.Database, opts ...ClientOption) *Client {
	srv := &Server{DB: db}
	return NewClient(func(ctx context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}, opts...)
}

// IdleConns reports how many connections sit in the pool — the leak check
// the cancellation tests assert on.
func (c *Client) IdleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// Close releases every pooled connection and fails subsequent requests
// with ErrClientClosed. In-flight streams keep their connections until
// they finish (those connections are then closed, not pooled).
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, conn := range idle {
		conn.Close()
	}
	return nil
}

// acquire returns a pooled connection if one is idle, else dials. reused
// reports whether the connection came from the pool (and so may have been
// closed by the server while idle). Pooled connections get a cheap
// liveness check first; a peer that went away while the connection idled
// (server restart, idle timeout) is evicted and the next candidate tried,
// so callers rarely burn a request attempt discovering a dead socket.
func (c *Client) acquire(ctx context.Context) (conn net.Conn, reused bool, err error) {
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, false, ErrClientClosed
		}
		conn = nil
		if n := len(c.idle); n > 0 {
			conn = c.idle[n-1]
			c.idle = c.idle[:n-1]
		}
		c.mu.Unlock()
		if conn == nil {
			break
		}
		if connAlive(conn) {
			if m := obs.M(); m != nil {
				m.Client.PoolHits.Inc()
			}
			return conn, true, nil
		}
		conn.Close()
		if m := obs.M(); m != nil {
			m.Client.StaleConns.Inc()
		}
	}
	conn, err = c.dial(ctx)
	if err == nil {
		if m := obs.M(); m != nil {
			m.Client.Dials.Inc()
		}
	}
	return conn, false, err
}

// put returns a connection to the pool, or closes it when the pool is full
// or the client closed.
func (c *Client) put(conn net.Conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < DefaultPoolSize {
		c.idle = append(c.idle, conn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	conn.Close()
}

// watcher interrupts a connection's in-flight IO when the context ends, by
// moving the connection deadline into the past. Stop is synchronous, so a
// stopped watcher leaks no goroutine.
type watcher struct {
	stop chan struct{}
	done chan struct{}
}

func watchCancel(ctx context.Context, conn net.Conn) *watcher {
	if ctx.Done() == nil {
		return nil
	}
	w := &watcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Unix(1, 0))
		case <-w.stop:
		}
	}()
	return w
}

func (w *watcher) Stop() {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// wrapErr classifies a request error: context cancellation and deadlines
// map onto the typed sentinels (so errors.Is sees context.Canceled /
// context.DeadlineExceeded), IO timeouts map onto ErrDeadlineExceeded, and
// anything else is wrapped verbatim.
func wrapErr(ctx context.Context, op string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("wire: %s: %w", op, ctxSentinel(cerr))
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("wire: %s: %w", op, ErrDeadlineExceeded)
	}
	return fmt.Errorf("wire: %s: %w", op, err)
}

// Reopen backoff: the pre-jitter delay starts at backoffBase and doubles
// per failed reopen of an episode, up to backoffCap.
const (
	backoffBase = 10 * time.Millisecond
	backoffCap  = time.Second
)

// backoffDelay computes the pre-jitter backoff before reopen number attempt
// (1 = the first reopen of an episode): backoffBase doubled per prior
// reopen, capped at backoffCap. Pure, so the bounds are testable.
func backoffDelay(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	return min(d, backoffCap)
}

// jitter applies full jitter to the upper half of a backoff: the result is
// uniform in [d/2, d]. The lower bound keeps some separation between
// reopeners; the randomized upper half de-synchronizes them.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// backoff sleeps jitter(backoffDelay(attempt)) before reopen number attempt,
// honoring ctx: the sleep is uniform in [delay/2, delay], so a capped
// reopen sleeps within [backoffCap/2, backoffCap].
func backoff(ctx context.Context, attempt int) error {
	t := time.NewTimer(jitter(backoffDelay(attempt)))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return fmt.Errorf("wire: resume: %w", ctxSentinel(ctx.Err()))
	case <-t.C:
		return nil
	}
}

// isDeadline reports whether a request failed on a deadline, for the
// deadline-exceeded counter.
func isDeadline(err error) bool {
	return err != nil &&
		(errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded))
}

// budgetFor converts the request's effective deadline into the wire budget:
// the time remaining until it, floored at one nanosecond (a deadline in the
// past still rides as a positive budget, which the server refuses without
// executing). Zero means no deadline — nothing rides the wire.
func budgetFor(deadline time.Time) time.Duration {
	if deadline.IsZero() {
		return 0
	}
	if b := time.Until(deadline); b > 0 {
		return b
	}
	return time.Nanosecond
}

// transient reports whether a failure is worth a fresh attempt: transport
// errors are (SilkRoute queries are read-only SELECTs, so resubmitting
// cannot duplicate work in the document), definitive server answers and
// deadline/cancel are not.
func transient(err error) bool {
	var se *Error
	if errors.As(err, &se) {
		return false
	}
	return !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCanceled) &&
		!errors.Is(err, ErrCircuitOpen)
}

// reroutable reports whether a failed open may succeed on a later attempt
// or another endpoint: a transport failure, or a breaker failing fast.
// A server's answer, a deadline or a cancellation ends the request.
func reroutable(err error) bool {
	return transient(err) || errors.Is(err, ErrCircuitOpen)
}

// Rows is one open tuple stream.
type Rows struct {
	// Columns holds the result column names.
	Columns []string
	// BytesRead counts payload bytes received so far (the transfer volume
	// the experiments report).
	BytesRead int64
	// RowCount counts rows decoded so far.
	RowCount int64
	// Resumes is how many times the stream was reopened mid-flight after
	// a transport failure, the last reopen from the top included (0 = the
	// stream ran uninterrupted). Only streams opened with QueryResumable on
	// a WithResume client ever reopen.
	Resumes int
	// Failovers is how many of those reopens moved the stream to a
	// different replica than the one it died on (0 = the stream never left
	// its first replica). Only streams opened through a ReplicaSet ever
	// fail over.
	Failovers int
	// Replica is the index of the replica currently serving the stream
	// within its ReplicaSet; 0 for single-client streams.
	Replica int

	ctx      context.Context
	client   *Client
	conn     net.Conn
	watch    *watcher
	buf      []byte        // the last frame read, reused across reads
	slab     []value.Value // the current frame's rows, decoded at once
	off      int           // index in slab of the next row's first value
	left     int           // rows of the current frame not yet delivered
	done     bool
	released bool

	// Resume state (see resume.go). spec == nil means resume is not armed.
	spec    *ResumeSpec
	budget  int           // remaining reopens
	lastKey []value.Value // sort key of the last delivered row
	ties    int64         // delivered rows carrying exactly lastKey

	// Replica state (see replica.go). set == nil means the stream was
	// opened on a bare Client and reopens there.
	set *ReplicaSet

	// Shard state (see shard.go). merge != nil means this Rows is the
	// spliced head of a scatter-gather: it owns no connection of its own
	// and Next/Close are served by the merge over the per-shard children.
	merge *shardMerge
}

// Query submits sql and returns the stream positioned before the first row.
// The server executes the query fully before sending the header, so the
// time spent inside Query (until it returns) is the paper's "query-only
// time": time to the first tuple.
//
// The context governs the whole request: Query honors its deadline and
// cancellation while connecting and waiting for the header, and the
// returned stream keeps honoring it row by row. A failed open is not
// retried: a replica set moves on to its next replica, and a started
// stream heals only through QueryResumable.
func (c *Client) Query(ctx context.Context, sql string) (*Rows, error) {
	return c.QueryResumable(ctx, sql, nil)
}

// response is one decoded status frame: exactly one field is set, by op.
type response struct {
	rows  *Rows           // opQuery: the open stream, holding its connection
	est   engine.Estimate // opEstimate
	epoch int64           // opEpoch
}

// do runs one logical request: one span and one request count around one
// guarded attempt.
func (c *Client) do(ctx context.Context, op byte, sql string) (response, error) {
	if err := ctx.Err(); err != nil {
		return response{}, fmt.Errorf("wire: %s: %w", ops[op].name, ctxSentinel(err))
	}
	m := obs.M()
	if m != nil {
		m.Client.Requests.Inc()
		m.Client.InFlight.Inc()
	}
	ctx, span := obs.StartSpan(ctx, ops[op].clientSpan)
	span.SetDetail(sql)
	resp, err := c.attempt(ctx, newRequest(op, span, sql))
	span.End()
	if m != nil {
		m.Client.InFlight.Dec()
		if isDeadline(err) {
			m.Client.DeadlineExceeded.Inc()
		}
	}
	return resp, err
}

// attempt runs one guarded round trip. A request whose context deadline
// has already passed is shed before any connection is acquired or dialed:
// the caller can no longer use the answer, so opening a backend stream for
// it is pure waste. Every op's fresh requests, mid-stream reopens and
// per-shard scatters pass through here, so all are covered. The
// breaker then admits the attempt and learns from its outcome.
func (c *Client) attempt(ctx context.Context, req request) (response, error) {
	name := ops[req.op].name
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		if m := obs.M(); m != nil {
			m.Client.BudgetExpired.Inc()
		}
		return response{}, fmt.Errorf("wire: %s: budget spent: %w", name, ErrDeadlineExceeded)
	}
	if err := c.breakerAllow(); err != nil {
		return response{}, fmt.Errorf("wire: %s: %w", name, err)
	}
	resp, err := c.roundTrip(ctx, req)
	c.breakerDone(classifyBreaker(ctx.Err(), err))
	return resp, err
}

// roundTrip performs one request/response exchange. A stale pooled
// connection (closed by the server while idle) is replaced with a fresh
// dial within the same attempt. Any complete response — the
// status frame or a clean error frame, decoded into the server's typed
// *Error — leaves the connection request-aligned, so it returns to the
// pool; an open stream keeps it instead, and a transport failure closes it.
func (c *Client) roundTrip(ctx context.Context, req request) (response, error) {
	for {
		conn, reused, err := c.acquire(ctx)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return response{}, err
			}
			return response{}, wrapErr(ctx, "dial", err)
		}
		deadline, _ := ctx.Deadline()
		conn.SetDeadline(deadline)
		w := watchCancel(ctx, conn)
		resp, err := exchange(conn, req.withBudget(budgetFor(deadline)))
		var se *Error
		switch {
		case err == nil && resp.rows != nil:
			r := resp.rows
			r.ctx, r.client, r.conn, r.watch = ctx, c, conn, w
			return resp, nil
		case err == nil || errors.As(err, &se):
			c.settle(ctx, conn, w, true)
			return resp, err
		}
		c.settle(ctx, conn, w, false)
		err = wrapErr(ctx, ops[req.op].name, err)
		if reused && ctx.Err() == nil && transient(err) {
			continue // the pooled connection had gone stale; redial
		}
		return response{}, err
	}
}

// exchange writes the request frame — length prefix and payload in one
// Write — and reads and decodes the status frame.
func exchange(conn net.Conn, req request) (response, error) {
	frame := appendRequest(make([]byte, 4, 4+2+16+8+len(req.sql)), req)
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := conn.Write(frame); err != nil {
		return response{}, fmt.Errorf("send: %w", err)
	}
	status, err := readFrame(conn, nil, maxRequestFrame)
	if errors.Is(err, errFrameTooLarge) {
		return response{}, fmt.Errorf("read status: %w: %w", ErrBadResponse, err)
	}
	if err != nil {
		return response{}, fmt.Errorf("read status: %w", err)
	}
	return parseResponse(req.op, status)
}

// parseResponse decodes the status frame answering op: 'E' is the server's
// typed error, otherwise 'C' (column names) for a query and 'V' (fixed-size
// values) for the others. A frame it cannot decode is ErrBadResponse.
func parseResponse(op byte, status []byte) (response, error) {
	switch {
	case len(status) == 0:
		return response{}, fmt.Errorf("read status: %w: empty frame", ErrBadResponse)
	case status[0] == 'E':
		if len(status) < 2 {
			return response{}, &Error{Code: CodeUnknown, Msg: "truncated error frame"}
		}
		return response{}, &Error{Code: Code(status[1]), Msg: string(status[2:])}
	case status[0] == 'C' && op == opQuery:
		cols, err := decodeColumns(status)
		if err != nil {
			return response{}, fmt.Errorf("read status: %w: %v", ErrBadResponse, err)
		}
		return response{rows: &Rows{Columns: cols}}, nil
	case status[0] == 'V' && op == opEstimate && len(status) == 1+3*8:
		return response{est: engine.Estimate{
			Cost:  math.Float64frombits(binary.BigEndian.Uint64(status[1:9])),
			Rows:  math.Float64frombits(binary.BigEndian.Uint64(status[9:17])),
			Width: math.Float64frombits(binary.BigEndian.Uint64(status[17:25])),
		}}, nil
	case status[0] == 'V' && op == opEpoch && len(status) == 1+8:
		return response{epoch: int64(binary.BigEndian.Uint64(status[1:9]))}, nil
	}
	return response{}, fmt.Errorf("read status: %w: unexpected %q frame of %d bytes", ErrBadResponse, status[0], len(status))
}

// settle retires a connection after an exchange: back to the pool when the
// response was consumed to its end and the request is still live, closed
// otherwise (unread frames may be in flight).
func (c *Client) settle(ctx context.Context, conn net.Conn, w *watcher, reusable bool) {
	w.Stop()
	if reusable && ctx.Err() == nil {
		conn.SetDeadline(time.Time{})
		c.put(conn)
	} else {
		conn.Close()
	}
}

// decodeColumns parses the 'C' status frame's column names.
func decodeColumns(status []byte) ([]string, error) {
	if len(status) < 3 {
		return nil, fmt.Errorf("truncated column header")
	}
	n := int(binary.BigEndian.Uint16(status[1:3]))
	rest := status[3:]
	cols := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 2 {
			return nil, fmt.Errorf("truncated column name %d", i)
		}
		ln := int(binary.BigEndian.Uint16(rest[:2]))
		rest = rest[2:]
		if len(rest) < ln {
			return nil, fmt.Errorf("truncated column name %d", i)
		}
		cols = append(cols, string(rest[:ln]))
		rest = rest[ln:]
	}
	return cols, nil
}

// Next binds and returns the next row, or io.EOF after the last row. The
// decode is the per-tuple "binding" cost the paper attributes to the
// client, and every column of every row is still decoded; a row-batch frame
// is decoded whole, into one slab of values and one string for its string
// payloads, so a frame costs two allocations however many rows it holds.
// A returned row stays valid after later calls — each frame gets a fresh
// slab, never a reused one — and is capacity-limited, so appending to it
// cannot overwrite the row after it. A malformed frame fails the stream
// with ErrBadResponse before any of its rows is delivered. Cancelling the
// stream's context interrupts a blocked read promptly; the error then
// satisfies errors.Is(err, context.Canceled).
func (r *Rows) Next() ([]value.Value, error) {
	if r.merge != nil {
		return r.merge.next(r)
	}
	if r.done {
		return nil, io.EOF
	}
	for r.left == 0 {
		// The watcher moves the deadline from its own goroutine, so a read
		// just after cancellation can still succeed: a cancelled stream
		// must not end in a clean io.EOF.
		if err := r.ctx.Err(); err != nil {
			r.release(false)
			return nil, wrapErr(r.ctx, "read row", err)
		}
		frame, err := readFrame(r.conn, r.buf, maxFrame)
		if err != nil {
			// A transport failure mid-stream. tryResume either splices a
			// continuation onto the stream (nil: loop and keep reading from
			// the adopted connection) or returns the error to surface.
			if rerr := r.tryResume(err); rerr != nil {
				return nil, rerr
			}
			continue
		}
		r.buf = frame
		if len(frame) == 0 {
			r.release(true)
			return nil, io.EOF
		}
		r.BytesRead += int64(len(frame))
		if err := r.decodeFrame(frame); err != nil {
			r.release(false)
			return nil, err
		}
	}
	n := len(r.Columns)
	row := r.slab[r.off : r.off+n : r.off+n]
	r.off += n
	r.left--
	r.RowCount++
	r.noteDelivered(row)
	return row, nil
}

// decodeFrame decodes one non-empty row-batch frame into a fresh slab. A
// zero-column frame is one row whatever it holds: zero-column rows encode
// to nothing, so counting them is the only way the stream still ends.
func (r *Rows) decodeFrame(frame []byte) error {
	n := len(r.Columns)
	if n == 0 {
		r.slab, r.off, r.left = nil, 0, 1
		return nil
	}
	slab, err := value.DecodeRows(frame, n, batchMaxRows)
	if err != nil {
		return fmt.Errorf("wire: read row: %w: %v", ErrBadResponse, err)
	}
	r.slab, r.off, r.left = slab, 0, len(slab)/n
	return nil
}

// release retires the stream's connection exactly once: back to the pool
// after a cleanly terminated stream, closed otherwise (an abandoned stream
// has unread frames in flight and cannot be reused). Replica-set streams
// also surrender their in-flight slot here.
func (r *Rows) release(reusable bool) {
	if r.released {
		return
	}
	r.released = true
	r.done = true
	r.client.settle(r.ctx, r.conn, r.watch, reusable)
	if r.set != nil {
		r.set.reps[r.Replica].inFlight.Add(-1)
	}
}

// Close releases the stream's connection. It is idempotent, so plan
// executors can close every stream unconditionally after tagging without
// tripping over streams that already released themselves at EOF.
func (r *Rows) Close() error {
	if r.merge != nil {
		return r.merge.close(r)
	}
	r.done = true
	r.release(false)
	return nil
}

// Estimate asks the remote optimizer for a query's cost, cardinality, and
// row-width estimate — the middleware-side face of the paper's §5 oracle.
// It obeys the same context and pooling rules as Query.
func (c *Client) Estimate(ctx context.Context, sql string) (engine.Estimate, error) {
	resp, err := c.do(ctx, opEstimate, sql)
	return resp.est, err
}

// StatsEpoch asks the server for its database's stats epoch — the write
// counter the client-side fragment cache validates remote freshness against.
// Callers must map an error to the cold path, never to serving stale data.
func (c *Client) StatsEpoch(ctx context.Context) (int64, error) {
	resp, err := c.do(ctx, opEpoch, "")
	return resp.epoch, err
}
