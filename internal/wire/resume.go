package wire

// Stream healing. Replaying a whole query could re-deliver rows into a
// half-merged document, but SilkRoute streams are sorted by their
// structural key, so a dead stream has a well-defined frontier — the sort
// key of the last row delivered — and healing it means one thing: reopen
// its SQL after that key on some endpoint, skip the boundary rows already
// delivered, and splice the continuation in without the consumer ever
// noticing. This file is the one loop that does it. A stream armed with
// budget n gets at most n+1 reopens: n at the frontier (a replica-set
// stream's reopen leaves the replica it died on), then one from the top
// that re-runs the original query and skips every delivered row. After
// that the stream fails with ErrResumeExhausted. A sharded stream heals
// each shard's partial stream this way underneath the merge.

import (
	"context"
	"errors"
	"fmt"
	"io"

	"silkroute/internal/obs"
	"silkroute/internal/value"
)

// Resume configures mid-stream recovery.
type Resume struct {
	// MaxResumes is the per-stream healing budget n: a stream that dies
	// mid-flight is reopened at most n+1 times (see tryResume); <= 0
	// disables healing (the default), in which case a started stream that
	// dies fails with an error satisfying errors.Is(err, ErrStreamLost).
	MaxResumes int
}

// WithResume sets the mid-stream recovery policy. Disabled by default;
// resume only engages on streams opened with QueryResumable, since the
// client cannot rewrite arbitrary SQL on its own.
func WithResume(r Resume) ClientOption {
	return func(c *Client) { c.resume = r }
}

// ResumeSpec tells the client how to recover one query's tuple stream
// after a mid-stream transport failure. The plan layer builds it from the
// stream's structural sort key (see plan.ExecuteWire).
type ResumeSpec struct {
	// KeyCols are the positions of the stream's sort-key columns within a
	// result row, in ORDER BY order. It may be empty (a stream with a
	// constant sort key); resume then re-runs the original SQL and skips
	// every row already delivered.
	KeyCols []int
	// Rewrite returns SQL producing the stream's suffix at/after the
	// given boundary key — the last fully delivered row's sort-key
	// values — or the original SQL when the key is nil. The rewritten
	// query must keep the original's column set, order, and sort.
	Rewrite func(lastKey []value.Value) (string, error)
}

// QueryResumable is Query with mid-stream recovery armed: if the returned
// stream dies with a transient transport error after it started, the
// client reopens it at the frontier (see tryResume), skips the duplicate
// boundary rows, and splices the continuation in place, so the caller
// observes one uninterrupted sorted stream. When the client's Resume
// budget runs out the stream fails with ErrResumeExhausted (which also
// satisfies errors.Is(err, ErrStreamLost)).
//
// A nil spec, or a client without WithResume, behaves exactly like Query.
func (c *Client) QueryResumable(ctx context.Context, sql string, spec *ResumeSpec) (*Rows, error) {
	resp, err := c.do(ctx, opQuery, sql)
	if err == nil && spec != nil && c.resume.MaxResumes > 0 {
		resp.rows.spec = spec
		resp.rows.budget = c.resume.MaxResumes + 1
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

// tryResume handles a failed mid-stream read: the stream-healing ladder.
// It returns nil after a successful reopen — the caller loops and keeps
// reading from the adopted connection — or the error to surface.
// Non-transient failures (context, deadline) and unarmed streams fail
// immediately. An armed stream spends its budget one reopen at a time,
// backing off before each; the last reopen starts from the top.
func (r *Rows) tryResume(cause error) error {
	werr := wrapErr(r.ctx, "read row", cause)
	if r.ctx.Err() != nil || !transient(werr) {
		r.release(false)
		return werr
	}
	if r.spec == nil {
		r.release(false)
		if m := obs.M(); m != nil {
			m.Client.StreamsLost.Inc()
		}
		return fmt.Errorf("wire: %w after %d rows: %v", ErrStreamLost, r.RowCount, cause)
	}
	_, span := obs.StartSpan(r.ctx, "wire.client.resume")
	defer span.End()
	lastErr := cause
	// tried marks the replicas whose reopen failed in this episode, so a
	// replica-set stream's next reopen moves on (see reopenTarget).
	var tried []bool
	if r.set != nil {
		tried = make([]bool, len(r.set.reps))
	}
	// The backoff attempt counter is per recovery episode: it resets once a
	// reopen sticks, because a stuck reopen made progress. A long stream
	// that survives many separate failures must not be punished with the
	// compounded exponential delay of its lifetime reopen count.
	for attempt := 1; r.budget > 0; attempt++ {
		r.budget--
		r.Resumes++
		if m := obs.M(); m != nil {
			m.Client.Resumes.Inc()
		}
		if err := backoff(r.ctx, attempt); err != nil {
			r.release(false)
			return err
		}
		if r.budget == 0 {
			// The last reopen starts from the top: no boundary key, and
			// every delivered row is a tie to skip.
			r.lastKey, r.ties = nil, r.RowCount
		}
		sql, err := r.spec.Rewrite(r.frontierKey())
		if err != nil {
			r.release(false)
			return fmt.Errorf("wire: resume rewrite: %w", err)
		}
		span.SetDetail(sql)
		permanent, err := r.reopen(span, sql, tried)
		if err == nil {
			return nil
		}
		lastErr = err
		if permanent || r.ctx.Err() != nil || errors.Is(err, ErrClientClosed) || !reroutable(err) {
			r.release(false)
			return err
		}
	}
	r.release(false)
	if m := obs.M(); m != nil {
		m.Client.StreamsLost.Inc()
	}
	return fmt.Errorf("wire: %w after %d rows: %v", ErrResumeExhausted, r.RowCount, lastErr)
}

// reopen opens sql on this reopen's endpoint and splices the continuation
// into r. A bare Client's stream reopens on its own client. A replica-set
// stream reopens where reopenTarget says; the sorted outer union makes the
// continuation byte-identical whichever replica serves it. A failed reopen
// marks its replica in tried; once the replica the stream died on fails
// too, every replica has had its turn and a new round begins. An adopted
// continuation on a different replica counts as a failover.
func (r *Rows) reopen(span *obs.Span, sql string, tried []bool) (permanent bool, err error) {
	open := func(c *Client) error {
		resp, err := c.attempt(r.ctx, newRequest(opQuery, span, sql))
		if err == nil {
			permanent, err = r.adopt(resp.rows)
		}
		return err
	}
	if r.set == nil {
		err = open(r.client)
		return permanent, err
	}
	idx, rep := r.reopenTarget(tried)
	if err = rep.run(true, open); err != nil {
		if idx == r.Replica {
			clear(tried)
		} else {
			tried[idx] = true
		}
		return permanent, err
	}
	// Adopted: the stream now lives on rep. Its in-flight slot moves with
	// it, and release repools the connection into the new home's pool.
	if idx != r.Replica {
		r.Failovers++
		if m := obs.M(); m != nil {
			m.Client.Failovers.Inc()
		}
	}
	r.set.reps[r.Replica].inFlight.Add(-1)
	r.Replica, r.client = idx, rep.client
	return false, nil
}

// reopenTarget picks the replica for one reopen of a replica-set stream:
// the balancer's choice among the replicas that are neither the one the
// stream died on nor marked in tried (pick skips open breakers). When none
// of those is usable, the stream reopens on the replica it died on, so a
// flaky endpoint whose peers are all down still heals its own stream.
func (r *Rows) reopenTarget(tried []bool) (int, *replicaState) {
	skip := func(i int) bool { return i == r.Replica || tried[i] }
	for i := range r.set.reps {
		if skip(i) {
			continue
		}
		if idx, rep, err := r.set.pick(skip); err == nil {
			return idx, rep
		}
		break
	}
	return r.Replica, r.set.reps[r.Replica]
}

// adopt splices a freshly opened continuation stream into r: it verifies
// the column set, skips the boundary rows already delivered (exactly
// r.ties rows, whose sort key must equal the frontier when there is one),
// retires the dead connection, and takes over the new stream's connection
// and read state. permanent reports an error that burning more attempts
// cannot fix (the source data changed under us, or the rewritten query is
// malformed).
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
		if r.lastKey != nil && !r.keyMatches(row) {
			nr.Close()
			return true, fmt.Errorf("wire: resume: source changed: boundary key mismatch at row %d", i+1)
		}
	}
	// The old connection is dead; retire it quietly and take over the new
	// stream's transport. The new Rows shell is discarded — r keeps its
	// identity, counters, and frontier.
	r.watch.Stop()
	r.conn.Close()
	r.conn, r.watch = nr.conn, nr.watch
	r.buf, r.slab, r.off, r.left = nr.buf, nr.slab, nr.off, nr.left
	r.BytesRead += nr.BytesRead
	return false, nil
}
