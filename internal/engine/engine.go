// Package engine is the target relational database of the reproduction: an
// in-memory engine that accepts SQL text, executes it, and answers
// cost/cardinality estimate requests.
//
// The paper's middleware treats the target RDBMS as two black-box
// interfaces — "run this SQL and stream the tuples" (JDBC) and "estimate
// this query's cost and result size" (the optimizer-as-oracle of §5). This
// package provides exactly those two interfaces and nothing more, so the
// SilkRoute layers above it genuinely cannot rely on engine internals, just
// as the paper requires of a middleware system.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"silkroute/internal/obs"
	"silkroute/internal/schema"
	"silkroute/internal/sqlast"
	"silkroute/internal/sqlexec"
	"silkroute/internal/sqlparse"
	"silkroute/internal/table"
)

// Database is one target database instance: a schema plus stored tables.
//
// Concurrency contract: once loading is done, ExecuteQuery and the estimate
// interface are safe to call from any number of goroutines concurrently.
// Query execution never mutates the database — the view tree, generated SQL,
// and executor all work on per-call state; table statistics are computed
// under a per-table mutex; the estimate-request counter, every table's
// write version and the query log's on switch are atomic, so StatsEpoch,
// TableVersion and EnableQueryLog may be called at any time. A Result reads
// the stored columns until it is drained, through row IDs. What is NOT safe
// is inserting rows (Table/Insert) concurrently with queries or with an
// undrained Result; load first, then query, as every experiment harness
// here does.
type Database struct {
	Schema *schema.Schema
	// tables holds every relation under its lower-cased name.
	tables map[string]*stored

	// SortBudgetRows bounds in-memory sorts: larger sorts spill to disk
	// through the executor's external merge sort, reproducing the
	// memory-pressure effects of the paper's Config B server. Zero means
	// unlimited.
	SortBudgetRows int

	logging  atomic.Bool // read on every query without logMu
	logMu    sync.Mutex
	queryLog []QueryLogEntry
}

// QueryLogEntry records one executed SQL statement, for tests that need
// to assert what actually reached the engine (e.g. that a resumed stream
// re-fetched only the boundary suffix).
type QueryLogEntry struct {
	// SQL is the statement text as executed.
	SQL string
	// Rows is the result's row count (0 on error).
	Rows int
}

// EnableQueryLog starts recording executed statements; it also clears any
// previous log. Logging costs one mutex acquisition per query, so it is
// off by default.
func (db *Database) EnableQueryLog() {
	db.logMu.Lock()
	db.logging.Store(true)
	db.queryLog = nil
	db.logMu.Unlock()
}

// QueryLog returns a copy of the recorded statements, in execution order.
func (db *Database) QueryLog() []QueryLogEntry {
	db.logMu.Lock()
	defer db.logMu.Unlock()
	return append([]QueryLogEntry(nil), db.queryLog...)
}

func (db *Database) logQuery(sql string, rows int) {
	db.logMu.Lock()
	db.queryLog = append(db.queryLog, QueryLogEntry{SQL: sql, Rows: rows})
	db.logMu.Unlock()
}

// SortMemoryRows implements sqlexec.SortBudget.
func (db *Database) SortMemoryRows() int { return db.SortBudgetRows }

// NewDatabase creates a database for the given schema with empty tables for
// every relation.
func NewDatabase(s *schema.Schema) *Database {
	db := &Database{Schema: s, tables: make(map[string]*stored, len(s.Relations))}
	for name, rel := range s.Relations {
		db.tables[name] = &stored{Table: table.New(rel)}
	}
	return db
}

// StatsEpoch returns the database's write epoch: the sum of every table's
// write version, so it moves by exactly one per inserted row, whichever
// table absorbs it. Plans compiled against statistics (or data) from an
// older epoch must revalidate; the wire server answers the remote
// freshness probe with it.
func (db *Database) StatsEpoch() int64 {
	var sum int64
	for _, t := range db.tables {
		sum += t.Version()
	}
	return sum
}

// TableVersion returns the named table's write version, or -1 when the
// relation does not exist. Lookup is case-insensitive like Lookup.
func (db *Database) TableVersion(name string) int64 {
	t, ok := db.Lookup(name)
	if !ok {
		return -1
	}
	return t.Version()
}

// Lookup implements sqlexec.Catalog. Names are case-insensitive.
func (db *Database) Lookup(name string) (*table.Table, bool) {
	s, ok := db.lookup(name)
	if !ok {
		return nil, false
	}
	return s.Table, true
}

// lookup resolves a relation name. An ASCII name is lower-cased in a stack
// buffer, and indexing the map with the converted bytes does not allocate,
// so the executor's and estimator's lookups per base table cost nothing.
func (db *Database) lookup(name string) (*stored, bool) {
	var buf [64]byte
	if len(name) > len(buf) {
		s, ok := db.tables[strings.ToLower(name)]
		return s, ok
	}
	key := buf[:len(name)]
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			s, ok := db.tables[strings.ToLower(name)]
			return s, ok
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		key[i] = c
	}
	s, ok := db.tables[string(key)]
	return s, ok
}

// Table returns the stored table for a relation, for loading data.
func (db *Database) Table(name string) (*table.Table, error) {
	t, ok := db.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// MustTable panics if the relation does not exist.
func (db *Database) MustTable(name string) *table.Table {
	t, err := db.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Result is a query's result with a streaming cursor interface. The
// engine runs the query's joins and its structural sort before returning
// (every SilkRoute query ends in that sort, which forces the whole input to
// be read in any engine), but it keeps the sorted result as row IDs: Next
// evaluates each row's output columns as the middleware drains it, paying
// the wire cost per tuple.
type Result struct {
	Columns []string
	res     *sqlexec.Result
}

// Len returns the total number of rows in the result.
func (r *Result) Len() int { return r.res.Len() }

// Next returns the next row, or ok=false at the end of the stream. The row
// is valid until the next call, which overwrites it: the contract of
// tagger.Source and wire.Rows.NextView.
func (r *Result) Next() (table.Row, bool) { return r.res.Next() }

// ExecuteContext parses and runs one SQL statement under a context. The
// executor checks the context between row batches and external-sort runs,
// so cancellation interrupts a running query promptly with an error
// satisfying errors.Is(err, ctx.Err()).
func (db *Database) ExecuteContext(ctx context.Context, sql string) (*Result, error) {
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := db.ExecuteQueryContext(ctx, q)
	if db.logging.Load() {
		if err != nil {
			db.logQuery(sql, 0)
		} else {
			db.logQuery(sql, res.Len())
		}
	}
	return res, err
}

// ExecuteQueryContext runs an already-parsed statement under a context.
func (db *Database) ExecuteQueryContext(ctx context.Context, q sqlast.Query) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "engine.query")
	start := time.Now()
	res, err := sqlexec.Open(ctx, db, q)
	if m := obs.M(); m != nil {
		m.Exec.Queries.Inc()
		m.Exec.QuerySeconds.Observe(time.Since(start))
	}
	span.End()
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(res.Cols))
	for i, c := range res.Cols {
		cols[i] = c.Name
	}
	return &Result{Columns: cols, res: res}, nil
}
