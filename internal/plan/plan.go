// Package plan represents, executes, and searches over the execution plans
// of a view tree. A plan is a subset of the tree's edges (plus a reduction
// flag and a SQL-generation style); executing a plan submits one SQL query
// per connected component, merges the resulting tuple streams, and tags
// the XML document.
//
// The package provides the paper's three families of machinery:
//
//   - named default plans: unified outer-join, unified outer-union, and
//     fully partitioned;
//   - any plan by edge bitmask (FromBits), which §4's exhaustive sweep over
//     all 2^|E| plans (internal/bench) walks;
//   - the greedy genPlan algorithm of §5, which uses the target database's
//     cost estimates to select mandatory and optional edges.
package plan

import (
	"context"
	"fmt"
	"io"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/fanout"
	"silkroute/internal/obs"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tagger"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// Plan identifies one execution strategy for a view tree.
type Plan struct {
	Tree   *viewtree.Tree
	Keep   []bool // kept edges, indexed like Tree.Edges
	Reduce bool   // apply view-tree reduction (§3.5)
	Style  sqlgen.Style
	// Wrapper is the document element wrapped around the output; the
	// constructors default it to "document", and "" emits a bare element
	// sequence.
	Wrapper string
	// Parallelism bounds how many partition queries ExecuteDirect runs
	// concurrently. <=0 means runtime.GOMAXPROCS(0); 1 reproduces the
	// original serial behaviour. Partitioned plans are embarrassingly
	// parallel on the server side — each component query touches disjoint
	// work — so this is the knob the paper's "multiple result sets open at
	// once" client implies.
	Parallelism int
	// FragmentBoundary, when set, is forwarded to the tagger's OnTopLevel
	// hook: it fires just before each top-level element opens, with all
	// earlier bytes already flushed to the output writer. The fragment
	// cache uses it to split cached documents at exact element boundaries.
	FragmentBoundary func()
}

// Unified returns the plan keeping every edge: one SQL query.
func Unified(t *viewtree.Tree, reduce bool) *Plan {
	return &Plan{Tree: t, Keep: t.AllEdges(), Reduce: reduce, Style: sqlgen.OuterJoin, Wrapper: "document"}
}

// UnifiedOuterUnion returns the sorted outer-union comparator plan of [9].
func UnifiedOuterUnion(t *viewtree.Tree, reduce bool) *Plan {
	return &Plan{Tree: t, Keep: t.AllEdges(), Reduce: reduce, Style: sqlgen.OuterUnion, Wrapper: "document"}
}

// FullyPartitioned returns the plan cutting every edge: one SQL query per
// view-tree node.
func FullyPartitioned(t *viewtree.Tree) *Plan {
	return &Plan{Tree: t, Keep: t.NoEdges(), Style: sqlgen.OuterJoin, Wrapper: "document"}
}

// FromBits builds a plan from an edge bitmask (bit i keeps Tree.Edges[i]).
func FromBits(t *viewtree.Tree, bits uint64, reduce bool) *Plan {
	return &Plan{Tree: t, Keep: t.KeepFromBits(bits), Reduce: reduce, Style: sqlgen.OuterJoin, Wrapper: "document"}
}

// KeptEdges counts the kept edges.
func (p *Plan) KeptEdges() int {
	n := 0
	for _, k := range p.Keep {
		if k {
			n++
		}
	}
	return n
}

// NumStreams returns the number of tuple streams (SQL queries) the plan
// produces: one per connected component.
func (p *Plan) NumStreams() int {
	return len(p.Tree.Nodes) - p.KeptEdges()
}

// Streams partitions the view tree and generates the plan's SQL queries.
func (p *Plan) Streams() ([]*sqlgen.Stream, error) {
	comps, err := p.Tree.Partition(p.Keep, p.Reduce)
	if err != nil {
		return nil, err
	}
	return sqlgen.Generate(p.Tree, comps, p.Style)
}

// Metrics reports one plan execution's measurements, mirroring the paper's
// two reported times: query-only time (until every stream has produced its
// first tuple — dominated by server-side execution and sorting) and total
// time (until the last tuple has been read and tagged).
type Metrics struct {
	Streams int
	// QueryTime is the paper's "query-only" series. ExecuteDirect reports
	// the summed per-stream engine time, which is independent of
	// Parallelism, so parallel runs stay comparable with the published
	// serial numbers. ExecuteWire opens every stream at once and reports
	// the wall clock until each has its first tuple, which is what the
	// paper's client measured.
	QueryTime time.Duration
	// QueryWallTime is the elapsed wall clock of the query phase. With
	// Parallelism 1 it equals QueryTime (plus scheduling noise); with more
	// workers it is what actually shrinks. Over the wire it equals
	// QueryTime.
	QueryWallTime time.Duration
	TotalTime     time.Duration
	Rows          int64 // total tuples transferred across all streams
	Bytes         int64 // total payload bytes transferred (wire execution only)
	// PerStream breaks the totals down by tuple stream, in stream order —
	// the per-stream skew the aggregate times hide is exactly what the
	// greedy planner exploits, so executions report it.
	PerStream []StreamMetrics
}

// StreamMetrics is one tuple stream's share of a plan execution.
type StreamMetrics struct {
	// SQL is the stream's generated query text.
	SQL string
	// Rows counts the tuples this stream delivered.
	Rows int64
	// Bytes counts the payload bytes transferred (wire execution only).
	Bytes int64
	// QueryTime is the stream's server execution time: for direct
	// execution the engine call, for wire execution the span from submit
	// to the column header (time to first tuple).
	QueryTime time.Duration
	// WallTime is the stream's full lifetime — through the last row
	// drained into the tagger.
	WallTime time.Duration
	// Resumes counts mid-stream reopens: the stream died after delivering
	// rows and was spliced back together from its last sort key, or from
	// the top on its last reopen (wire execution with resume enabled;
	// always zero otherwise).
	Resumes int
	// Failovers counts the reopens that moved the stream to a different
	// replica (replica-set execution only; always zero otherwise).
	Failovers int
	// Replica is the index of the replica that finished serving the
	// stream within the replica set (0 for single-backend execution).
	Replica int
	// Shards breaks the stream down by shard for scatter-gather
	// execution: rows/bytes contributed and reopens spent per partition.
	// Nil when the backend is not sharded.
	Shards []wire.ShardStat
}

// resumeSpec is one sorted stream's resume contract: the output positions
// of its structural sort key and the rewrite that turns a boundary key
// into the stream's suffix query.
func resumeSpec(s *sqlgen.Stream) *wire.ResumeSpec {
	return &wire.ResumeSpec{KeyCols: s.SortKey(), Rewrite: s.ResumeSQL}
}

// resultSource adapts an engine result to a tagger source and counts the
// rows consumed. It polls the context every srcCheckRows rows so that
// cancellation also interrupts the tagging phase, after the queries have
// already executed.
type resultSource struct {
	ctx  context.Context
	res  *engine.Result
	rows *int64
	n    int
}

// srcCheckRows is the row granularity of context checks while draining a
// stream into the tagger.
const srcCheckRows = 4096

func (s *resultSource) Next() ([]value.Value, bool, error) {
	if s.n&(srcCheckRows-1) == 0 {
		if err := s.ctx.Err(); err != nil {
			return nil, false, err
		}
	}
	s.n++
	row, ok := s.res.Next()
	if !ok {
		return nil, false, nil
	}
	*s.rows++
	return row, true, nil
}

// ExecuteDirect runs the plan against an in-process engine (no wire
// protocol) and writes the XML document to w. Partition queries execute
// on at most p.Parallelism goroutines (see Plan and fanout.Each);
// QueryTime stays the summed server execution time regardless of the pool
// size, QueryWallTime is the elapsed query phase, and TotalTime adds
// tagging. Results are collected by stream index, so the merged document
// is byte-identical at every parallelism level.
//
// Cancelling ctx interrupts the run promptly — inside a partition query's
// executor loops, between queries, or while tagging — and the returned
// error satisfies errors.Is(err, ctx.Err()).
func ExecuteDirect(ctx context.Context, db *engine.Database, p *Plan, w io.Writer) (Metrics, error) {
	streams, err := p.Streams()
	if err != nil {
		return Metrics{}, err
	}
	ctx, span := obs.StartSpan(ctx, "plan.execute.direct")
	defer span.End()
	start := time.Now()
	m := Metrics{Streams: len(streams), PerStream: make([]StreamMetrics, len(streams))}
	inputs := make([]tagger.Input, len(streams))
	perRows := make([]int64, len(streams))

	results := make([]*engine.Result, len(streams))
	errs := make([]error, len(streams))
	fanout.Each(len(streams), p.Parallelism, func(i int) {
		qs := time.Now()
		results[i], errs[i] = db.ExecuteQueryContext(ctx, streams[i].Query)
		qd := time.Since(qs)
		m.PerStream[i] = StreamMetrics{SQL: streams[i].SQL(), QueryTime: qd, WallTime: qd}
	})
	for i, s := range streams {
		if errs[i] != nil {
			return Metrics{}, fmt.Errorf("plan: stream %d: %w", i, errs[i])
		}
		m.QueryTime += m.PerStream[i].QueryTime
		inputs[i] = tagger.Input{Meta: s, Rows: &resultSource{ctx: ctx, res: results[i], rows: &perRows[i]}}
	}
	m.QueryWallTime = time.Since(start)

	tg := tagger.New(p.Tree)
	tg.Wrapper = p.Wrapper
	tg.OnTopLevel = p.FragmentBoundary
	if err := tg.WriteXML(w, inputs); err != nil {
		return Metrics{}, err
	}
	m.TotalTime = time.Since(start)
	for i, n := range perRows {
		m.PerStream[i].Rows = n
		m.Rows += n
	}
	return m, nil
}

// wireSource adapts a wire row stream to a tagger source and remembers
// when the stream finished draining, for the per-stream wall time.
type wireSource struct {
	rows  *wire.Rows
	start time.Time
	wall  time.Duration // set once the stream reaches EOF
}

func (s *wireSource) Next() ([]value.Value, bool, error) {
	row, err := s.rows.Next()
	if err == io.EOF {
		s.wall = time.Since(s.start)
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// ExecuteWire runs the plan through the wire protocol: all SQL queries are
// submitted at once, one goroutine each (one connection per stream, as the
// paper's client opened one JDBC result set per query; an open waits on
// the server, not on local CPUs, so p.Parallelism does not bound it), then
// the tagger merges the streams. Query time is the span from submission
// until every stream has returned its first tuple; total time runs until
// the document is written.
//
// ctx governs the whole run. Cancelling it unblocks any stream mid-read —
// even one stalled on the network — releases every connection back to the
// client (abandoned streams are closed, not pooled), and returns an error
// satisfying errors.Is(err, ctx.Err()).
func ExecuteWire(ctx context.Context, client wire.Backend, p *Plan, w io.Writer) (Metrics, error) {
	streams, err := p.Streams()
	if err != nil {
		return Metrics{}, err
	}
	ctx, span := obs.StartSpan(ctx, "plan.execute.wire")
	defer span.End()
	start := time.Now()
	m := Metrics{Streams: len(streams), PerStream: make([]StreamMetrics, len(streams))}

	// Every ordered stream is opened with its resume contract. The client
	// arms healing only when its resume budget is above zero; a sharded
	// backend's scatter-gather merge keys on the same structural sort
	// columns either way.
	type opened struct {
		rows *wire.Rows
		err  error
	}
	results := make([]opened, len(streams))
	fanout.Each(len(streams), len(streams), func(i int) {
		s := streams[i]
		m.PerStream[i].SQL = s.SQL()
		qs := time.Now()
		rows, err := client.QueryResumable(ctx, m.PerStream[i].SQL, resumeSpec(s))
		m.PerStream[i].QueryTime = time.Since(qs)
		results[i] = opened{rows: rows, err: err}
	})
	m.QueryTime = time.Since(start)
	m.QueryWallTime = m.QueryTime

	inputs := make([]tagger.Input, len(streams))
	sources := make([]*wireSource, len(streams))
	for i, r := range results {
		if r.rows != nil {
			sources[i] = &wireSource{rows: r.rows, start: start}
		}
	}

	// Every opened stream is released on every exit path; Rows.Close is
	// idempotent, so streams already closed at EOF are fine.
	closeAll := func() {
		for _, s := range sources {
			if s != nil {
				s.rows.Close()
			}
		}
	}
	defer closeAll()

	for i, r := range results {
		if r.err != nil {
			return Metrics{}, fmt.Errorf("plan: stream %d: %w", i, r.err)
		}
		inputs[i] = tagger.Input{Meta: streams[i], Rows: sources[i]}
	}
	tg := tagger.New(p.Tree)
	tg.Wrapper = p.Wrapper
	tg.OnTopLevel = p.FragmentBoundary
	if err := tg.WriteXML(w, inputs); err != nil {
		return Metrics{}, err
	}
	m.TotalTime = time.Since(start)
	for i, s := range sources {
		m.Rows += s.rows.RowCount
		m.Bytes += s.rows.BytesRead
		m.PerStream[i].Rows = s.rows.RowCount
		m.PerStream[i].Bytes = s.rows.BytesRead
		m.PerStream[i].Resumes = s.rows.Resumes
		m.PerStream[i].Failovers = s.rows.Failovers
		m.PerStream[i].Replica = s.rows.Replica
		m.PerStream[i].Shards = s.rows.ShardStats()
		if w := s.wall; w > 0 {
			m.PerStream[i].WallTime = w
		} else {
			m.PerStream[i].WallTime = m.TotalTime
		}
	}
	return m, nil
}
