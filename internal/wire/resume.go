package wire

// Mid-stream resume. The retry policy deliberately stops once a stream has
// started: replaying a whole query could re-deliver rows into a
// half-merged document. But SilkRoute streams are sorted by their
// structural key, so a dead stream has a well-defined frontier — the sort
// key of the last row delivered — and the suffix at/after that frontier
// can be fetched with a key-range query and spliced on, without the
// consumer ever noticing. This file implements the splice: tracking the
// frontier row by row, re-issuing the rewritten SQL on a fresh
// connection, skipping the boundary rows already delivered, and adopting
// the new connection into the existing Rows.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"silkroute/internal/obs"
	"silkroute/internal/value"
)

// Resume configures mid-stream recovery.
type Resume struct {
	// MaxResumes bounds how many times one stream may be resumed after
	// mid-flight transport failures; <= 0 disables resume (the default),
	// in which case a started stream that dies fails with an error
	// satisfying errors.Is(err, ErrStreamLost).
	MaxResumes int
}

// WithResume sets the mid-stream recovery policy. Disabled by default;
// resume only engages on streams opened with QueryResumable, since the
// client cannot rewrite arbitrary SQL on its own.
func WithResume(r Resume) ClientOption {
	return func(c *Client) { c.resume = r }
}

// MaxResumes reports the configured per-stream resume budget; zero means
// resume is disabled.
func (c *Client) MaxResumes() int {
	if c.resume.MaxResumes > 0 {
		return c.resume.MaxResumes
	}
	return 0
}

// ResumeSpec tells the client how to recover one query's tuple stream
// after a mid-stream transport failure. The plan layer builds it from the
// stream's structural sort key (plan.StreamSpec).
type ResumeSpec struct {
	// KeyCols are the positions of the stream's sort-key columns within a
	// result row, in ORDER BY order. It may be empty (a stream with a
	// constant sort key); resume then re-runs the original SQL and skips
	// every row already delivered.
	KeyCols []int
	// Rewrite returns SQL producing the stream's suffix at/after the
	// given boundary key — the last fully delivered row's sort-key
	// values, nil when no row was delivered yet. The rewritten query must
	// keep the original's column set, order, and sort.
	Rewrite func(lastKey []value.Value) (string, error)
}

// QueryResumable is Query with mid-stream recovery armed: if the returned
// stream dies with a transient transport error after it started, the
// client re-issues the spec's rewritten SQL (the suffix at/after the last
// delivered sort key) on a fresh connection, skips the duplicate boundary
// rows, and splices the continuation in place, so the caller observes one
// uninterrupted sorted stream. Recovery is bounded by the client's Resume
// budget per stream; when the budget runs out the stream fails with
// ErrResumeExhausted (which also satisfies errors.Is(err, ErrStreamLost)).
//
// A nil spec, or a client without WithResume, behaves exactly like Query.
func (c *Client) QueryResumable(ctx context.Context, sql string, spec *ResumeSpec) (*Rows, error) {
	resp, err := c.do(ctx, opQuery, sql)
	if err == nil && spec != nil && c.MaxResumes() > 0 {
		resp.rows.spec = spec
		resp.rows.budget = c.MaxResumes()
	}
	return resp.rows, err
}

// noteDelivered maintains the resume frontier after one row is handed to
// the caller: the last delivered sort key, and how many delivered rows
// carry exactly that key (SQL bag semantics allow full-key ties; ties are
// byte-identical rows, so a count is enough to dedupe them after resume).
func (r *Rows) noteDelivered(row []value.Value) {
	if r.spec == nil {
		return
	}
	keys := r.spec.KeyCols
	if len(keys) == 0 {
		// Constant sort key: every row is a boundary tie; resume re-runs
		// the query and fast-forwards past all of them.
		r.ties++
		return
	}
	if r.lastKey == nil {
		r.lastKey = make([]value.Value, len(keys))
		for i, k := range keys {
			r.lastKey[i] = row[k]
		}
		r.ties = 1
		return
	}
	if r.keyMatches(row) {
		r.ties++
		return
	}
	for i, k := range keys {
		r.lastKey[i] = row[k]
	}
	r.ties = 1
}

// keyMatches reports whether a row's sort key equals the frontier key.
// NULL equals NULL here: this is identity of the sort position, not SQL
// comparison semantics.
func (r *Rows) keyMatches(row []value.Value) bool {
	for i, k := range r.spec.KeyCols {
		if !value.Identical(row[k], r.lastKey[i]) {
			return false
		}
	}
	return true
}

// frontierKey returns a copy of the last delivered sort key, or nil when
// nothing was delivered yet.
func (r *Rows) frontierKey() []value.Value {
	if r.lastKey == nil {
		return nil
	}
	return append([]value.Value(nil), r.lastKey...)
}

// tryResume handles a failed mid-stream read. It returns nil after a
// successful resume — the caller loops and keeps reading from the adopted
// connection — or the error to surface. Non-transient failures (context,
// deadline) and unarmed streams fail immediately; armed streams burn
// resume attempts until one sticks or the budget is gone.
func (r *Rows) tryResume(cause error) error {
	werr := wrapErr(r.ctx, "read row", cause)
	if r.ctx.Err() != nil || !transient(werr) {
		r.release(false)
		return werr
	}
	if r.spec == nil {
		r.release(false)
		obs.M().ClientStreamLost()
		return fmt.Errorf("wire: %w after %d rows: %v", ErrStreamLost, r.RowCount, cause)
	}
	_, span := obs.StartSpan(r.ctx, "wire.client.resume")
	defer span.End()
	m := obs.M()
	lastErr := cause
	// The backoff attempt counter is per recovery episode: it resets once a
	// resume sticks, because a stuck resume made progress. A long stream
	// that survives many separate failures must not be punished with the
	// compounded exponential delay of its lifetime resume count.
	attempt := 0
	for r.budget > 0 {
		r.budget--
		r.Resumes++
		attempt++
		m.ClientResume()
		if err := r.client.backoff(r.ctx, attempt); err != nil {
			r.release(false)
			return err
		}
		sql, err := r.spec.Rewrite(r.frontierKey())
		if err != nil {
			r.release(false)
			return fmt.Errorf("wire: resume rewrite: %w", err)
		}
		span.SetDetail(sql)
		resp, err := r.client.attempt(r.ctx, newRequest(opQuery, span, sql))
		if err != nil {
			lastErr = err
			if errors.Is(err, ErrCircuitOpen) && r.set != nil {
				// This replica's breaker opened under us; burning the rest
				// of the same-replica budget would just fail fast again.
				// Only another replica can continue the stream.
				break
			}
			if r.ctx.Err() != nil || !transient(err) || errors.Is(err, ErrClientClosed) {
				r.release(false)
				return err
			}
			continue
		}
		permanent, err := r.adopt(resp.rows)
		if err == nil {
			return nil
		}
		lastErr = err
		if permanent || r.ctx.Err() != nil {
			r.release(false)
			return err
		}
	}
	// Same-replica recovery is out of road. A replica-set stream gets one
	// more ladder rung: re-issue the frontier suffix on a different healthy
	// replica and splice the continuation in (the sorted-outer-union
	// encoding makes the continuation byte-identical whichever healthy
	// replica serves it).
	if r.set != nil && r.foBudget > 0 {
		if err := r.failover(span, &lastErr); err == nil {
			return nil
		}
	}
	r.release(false)
	m.ClientStreamLost()
	return fmt.Errorf("wire: %w after %d rows: %v", ErrResumeExhausted, r.RowCount, lastErr)
}

// failover moves the stream to a different healthy replica: it rewrites
// the frontier suffix exactly like a same-replica resume, but opens the
// continuation on a replica chosen by the balancer (excluding the current
// one), then re-arms the same-replica resume budget there. It returns nil
// once a continuation is adopted; on failure *lastErr carries the most
// informative cause for the ErrResumeExhausted wrapper.
func (r *Rows) failover(span *obs.Span, lastErr *error) error {
	m := obs.M()
	for r.foBudget > 0 {
		if err := r.ctx.Err(); err != nil {
			*lastErr = ctxSentinel(err)
			return *lastErr
		}
		r.foBudget--
		sql, err := r.spec.Rewrite(r.frontierKey())
		if err != nil {
			*lastErr = fmt.Errorf("wire: failover rewrite: %w", err)
			return *lastErr
		}
		idx, rep, err := r.set.pick(r.Replica)
		if err != nil {
			*lastErr = err
			return err
		}
		r.Failovers++
		m.ClientFailover()
		span.SetDetail(sql)
		start := time.Now()
		resp, err := rep.client.attempt(r.ctx, newRequest(opQuery, span, sql))
		if err != nil {
			rep.note(true, 0)
			*lastErr = err
			if r.ctx.Err() != nil || errors.Is(err, ErrClientClosed) {
				return err
			}
			if !transient(err) && !errors.Is(err, ErrCircuitOpen) {
				// A definitive server answer; no replica will answer
				// differently.
				return err
			}
			continue
		}
		permanent, err := r.adopt(resp.rows)
		if err != nil {
			rep.note(true, 0)
			*lastErr = err
			if permanent || r.ctx.Err() != nil {
				return err
			}
			continue
		}
		// Adopted: the stream now lives on the new replica. Move the
		// in-flight slot, switch the owning client (release repools the
		// connection into r.client's pool), and grant a fresh same-replica
		// resume budget on the new home.
		rep.note(false, time.Since(start))
		r.set.reps[r.Replica].inFlight.Add(-1)
		rep.inFlight.Add(1)
		r.Replica = idx
		r.client = rep.client
		r.budget = r.client.MaxResumes()
		return nil
	}
	return *lastErr
}

// adopt splices a freshly opened continuation stream into r: it verifies
// the column set, skips the boundary rows already delivered (exactly
// r.ties rows whose sort key equals the frontier), retires the dead
// connection, and takes over the new stream's connection and read state.
// permanent reports an error that burning more attempts cannot fix (the
// source data changed under us, or the rewritten query is malformed).
func (r *Rows) adopt(nr *Rows) (permanent bool, err error) {
	if len(nr.Columns) != len(r.Columns) {
		nr.Close()
		return true, fmt.Errorf("wire: resume: continuation has %d columns, stream has %d", len(nr.Columns), len(r.Columns))
	}
	for i := int64(0); i < r.ties; i++ {
		row, err := nr.Next()
		if err != nil {
			nr.Close()
			// io.EOF here means the continuation holds fewer boundary
			// rows than were already delivered: the source changed.
			if err == io.EOF {
				return true, fmt.Errorf("wire: resume: source changed: boundary row %d/%d missing", i+1, r.ties)
			}
			return false, err // the continuation died too; try again
		}
		if len(r.spec.KeyCols) > 0 && !r.keyMatches(row) {
			nr.Close()
			return true, fmt.Errorf("wire: resume: source changed: boundary key mismatch at row %d", i+1)
		}
	}
	// The old connection is dead; retire it quietly and take over the new
	// stream's transport. The new Rows shell is discarded — r keeps its
	// identity, counters, and frontier.
	r.watch.Stop()
	r.conn.Close()
	r.conn, r.watch, r.br = nr.conn, nr.watch, nr.br
	r.buf, r.off = nr.buf, nr.off
	r.BytesRead += nr.BytesRead
	return false, nil
}
