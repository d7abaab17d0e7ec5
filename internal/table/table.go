// Package table implements the in-memory relation storage of the target
// database substrate: row storage, per-column statistics (the numbers the
// engine's cost estimator serves to SilkRoute's greedy planner), and CSV
// import/export used by cmd/tpchgen.
package table

import (
	"fmt"
	"sync"
	"sync/atomic"

	"silkroute/internal/schema"
	"silkroute/internal/value"
)

// Row is one tuple. Rows are positional; column names live in the schema.
type Row []value.Value

// Clone returns a copy of the row, for operators that must pad or mutate.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is one stored relation plus its statistics.
type Table struct {
	Rel  *schema.Relation
	Rows []Row

	mu    sync.Mutex
	stats *Stats // lazily computed, invalidated on Insert, guarded by mu

	version atomic.Int64 // write version, bumped by every Insert
}

// New creates an empty table for the given relation.
func New(rel *schema.Relation) *Table {
	return &Table{Rel: rel}
}

// Version returns the table's write version: the number of Inserts it has
// absorbed. Caches key freshness on it — a cached result built at version
// v is stale the moment Version reports anything else.
func (t *Table) Version() int64 { return t.version.Load() }

// Insert appends a row after arity-checking it against the relation.
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.Rel.Columns) {
		return fmt.Errorf("table %s: row has %d values, relation has %d columns",
			t.Rel.Name, len(row), len(t.Rel.Columns))
	}
	t.Rows = append(t.Rows, row)
	t.mu.Lock()
	t.stats = nil
	t.mu.Unlock()
	t.version.Add(1)
	return nil
}

// MustInsert panics on arity mismatch; for generators with static schemas.
func (t *Table) MustInsert(vals ...value.Value) {
	if err := t.Insert(Row(vals)); err != nil {
		panic(err)
	}
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// Stats holds per-table and per-column statistics. The engine's cost
// estimator is the "oracle" of the paper's §5; these numbers are all it
// knows about the data.
type Stats struct {
	RowCount int
	Columns  []ColumnStats
}

// ColumnStats describes one column's value distribution.
type ColumnStats struct {
	Distinct  int     // number of distinct non-null values
	NullCount int     // number of NULLs
	AvgWidth  float64 // average wire width in bytes
}

// Stats computes (and caches) the table's statistics. It is safe for
// concurrent use by readers; loads must not race with queries.
func (t *Table) Stats() *Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stats != nil {
		return t.stats
	}
	st := &Stats{RowCount: len(t.Rows), Columns: make([]ColumnStats, len(t.Rel.Columns))}
	var scratch []byte // reused hash-key buffer; only new distinct values allocate
	for c := range t.Rel.Columns {
		distinct := make(map[string]struct{})
		var nulls int
		var width int
		for _, row := range t.Rows {
			v := row[c]
			width += v.WireSize()
			if v.IsNull() {
				nulls++
				continue
			}
			scratch = v.AppendHashKey(scratch[:0])
			if _, ok := distinct[string(scratch)]; !ok {
				distinct[string(scratch)] = struct{}{}
			}
		}
		cs := ColumnStats{Distinct: len(distinct), NullCount: nulls}
		if len(t.Rows) > 0 {
			cs.AvgWidth = float64(width) / float64(len(t.Rows))
		}
		st.Columns[c] = cs
	}
	t.stats = st
	return st
}

// ColumnStats returns the statistics for the named column.
func (t *Table) ColumnStats(name string) (ColumnStats, bool) {
	i := t.Rel.ColumnIndex(name)
	if i < 0 {
		return ColumnStats{}, false
	}
	return t.Stats().Columns[i], true
}

// AvgRowWidth returns the table's average row wire width in bytes.
func (t *Table) AvgRowWidth() float64 {
	st := t.Stats()
	var w float64
	for _, c := range st.Columns {
		w += c.AvgWidth
	}
	return w
}
