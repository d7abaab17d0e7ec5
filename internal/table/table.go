// Package table implements the in-memory relation storage of the target
// database substrate: column-major storage, per-column statistics (the numbers the
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

// Table is one stored relation plus its statistics. It stores its values
// column-major: one slice per column, each as long as the table, so a read
// of column c of row i is one index, cols[c][i].
type Table struct {
	Rel  *schema.Relation
	cols [][]value.Value
	n    int // the row count

	mu    sync.Mutex
	stats *Stats // lazily computed, invalidated on Insert, guarded by mu

	version atomic.Int64 // write version, bumped by every Insert
}

// New creates an empty table for the given relation.
func New(rel *schema.Relation) *Table {
	return &Table{Rel: rel, cols: make([][]value.Value, len(rel.Columns))}
}

// Version returns the table's write version: the number of Inserts it has
// absorbed. Caches key freshness on it — a cached result built at version
// v is stale the moment Version reports anything else.
func (t *Table) Version() int64 { return t.version.Load() }

// Insert appends a row after arity-checking it against the relation: each
// value to its column. The table keeps the values, not the row, so the
// caller may reuse it.
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.Rel.Columns) {
		return fmt.Errorf("table %s: row has %d values, relation has %d columns",
			t.Rel.Name, len(row), len(t.Rel.Columns))
	}
	for c, v := range row {
		t.cols[c] = append(t.cols[c], v)
	}
	t.n++
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
func (t *Table) Len() int { return t.n }

// Columns returns the table's columns: Columns()[c][i] is column c of row
// i. The slices are the table's own; callers read them and never write to
// them or append to them.
func (t *Table) Columns() [][]value.Value { return t.cols }

// Row returns a copy of row i.
func (t *Table) Row(i int) Row {
	row := make(Row, len(t.cols))
	for c := range t.cols {
		row[c] = t.cols[c][i]
	}
	return row
}

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
	st := &Stats{RowCount: t.n, Columns: make([]ColumnStats, len(t.Rel.Columns))}
	var scratch []byte // reused key buffer; only new distinct values allocate
	for c := range t.Rel.Columns {
		distinct := make(map[string]struct{})
		var nulls int
		var width int
		for _, v := range t.cols[c] {
			width += v.WireSize()
			if v.IsNull() {
				nulls++
				continue
			}
			scratch = value.AppendKey(scratch[:0], v)
			if _, ok := distinct[string(scratch)]; !ok {
				distinct[string(scratch)] = struct{}{}
			}
		}
		cs := ColumnStats{Distinct: len(distinct), NullCount: nulls}
		if t.n > 0 {
			cs.AvgWidth = float64(width) / float64(t.n)
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
