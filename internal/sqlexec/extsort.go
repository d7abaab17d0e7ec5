package sqlexec

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"silkroute/internal/obs"
	"silkroute/internal/table"
	"silkroute/internal/value"
)

// External merge sort. The paper's Config B server had 256 MB of memory
// for a 100 MB database, and §7 attributes much of the unified plans'
// slowness to big sorts spilling to disk while the optimal plans' smaller
// per-query sorts stay in memory. The engine reproduces that behaviour
// with a classic run-generation + k-way-merge external sort: when a sort's
// input exceeds the configured row budget, sorted runs are encoded to
// temporary files and merged back, paying genuine I/O.

// SortBudget is implemented by catalogs that bound in-memory sorts.
type SortBudget interface {
	// SortMemoryRows returns the maximum number of rows a sort may hold in
	// memory; zero or negative means unlimited.
	SortMemoryRows() int
}

// sortBudget returns the catalog's in-memory sort bound in rows; zero or
// negative means unlimited.
func sortBudget(cat Catalog) int {
	if sb, ok := cat.(SortBudget); ok {
		return sb.SortMemoryRows()
	}
	return 0
}

// compareKeys orders two rows by the key columns in turn.
func compareKeys(a, b table.Row, keys []int) int {
	for _, k := range keys {
		if d := value.Compare(a[k], b[k]); d != 0 {
			return d
		}
	}
	return 0
}

// sortRows sorts rows in place and stably by the key columns. A sort of
// more rows than budget (when positive) spills to disk through the
// external merge sort.
func sortRows(ctx context.Context, rows []table.Row, keys []int, budget int) error {
	if len(keys) == 0 {
		return nil
	}
	if budget > 0 && len(rows) > budget {
		if err := externalSort(ctx, rows, keys, budget); err != nil {
			return err
		}
	} else {
		if err := ctx.Err(); err != nil {
			return err
		}
		slices.SortStableFunc(rows, func(a, b table.Row) int { return compareKeys(a, b, keys) })
	}
	if m := obs.M(); m != nil {
		m.Exec.RowsSorted.Add(int64(len(rows)))
	}
	return nil
}

// externalSort sorts rows as sortRows does, by sorting budget-sized runs,
// spilling each to a temporary file, and merging the runs back into rows.
// A run holds each row's values once; the merge reads the keys from them.
// Ties keep their input order: within a run by the stable sort, across
// runs by run order.
func externalSort(ctx context.Context, rows []table.Row, keys []int, budget int) error {
	ncols := len(rows[0])

	// Run generation: sort budget-sized chunks and spill each to a file.
	var runs []*os.File
	defer func() {
		for _, f := range runs {
			name := f.Name()
			f.Close()
			os.Remove(name)
		}
	}()
	// One encode buffer and frame header are reused across every row of
	// every run; the buffer grows to the largest row once and stays there.
	var buf []byte
	var hdr [4]byte
	for start := 0; start < len(rows); start += budget {
		// One check per run: each run is a budget-sized sort plus a file
		// write, which is exactly the expensive unit the paper's external
		// sorts pay for, so cancellation lands between runs.
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := rows[start:min(start+budget, len(rows))]
		slices.SortStableFunc(chunk, func(a, b table.Row) int { return compareKeys(a, b, keys) })
		f, err := os.CreateTemp("", "silkroute-sort-*.run")
		if err != nil {
			return fmt.Errorf("sqlexec: spill: %w", err)
		}
		runs = append(runs, f)
		w := bufio.NewWriterSize(f, 256<<10)
		for _, row := range chunk {
			buf = value.EncodeRow(buf[:0], row)
			binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
			if _, err := w.Write(hdr[:]); err != nil {
				return fmt.Errorf("sqlexec: spill write: %w", err)
			}
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("sqlexec: spill write: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("sqlexec: spill flush: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("sqlexec: spill rewind: %w", err)
		}
	}

	if m := obs.M(); m != nil {
		m.Exec.SortSpills.Add(int64(len(runs)))
	}

	// K-way merge, back into rows: every row is in a run by now.
	h := &runHeap{keys: keys}
	for i, f := range runs {
		r := &runReader{r: bufio.NewReaderSize(f, 256<<10), ncols: ncols, runIdx: i}
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Push(h, r)
		}
	}
	for i := 0; h.Len() > 0; i++ {
		if err := pollCtx(ctx, i); err != nil {
			return err
		}
		r := h.runs[0]
		rows[i] = r.cur
		ok, err := r.next()
		if err != nil {
			return err
		}
		if ok {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return nil
}

// runReader streams rows back from one spilled run.
type runReader struct {
	r      *bufio.Reader
	ncols  int
	runIdx int
	cur    table.Row
	buf    []byte
}

func (r *runReader) next() (bool, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, fmt.Errorf("sqlexec: run read: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return false, fmt.Errorf("sqlexec: run read: %w", err)
	}
	row, err := value.DecodeRow(r.buf, r.ncols)
	if err != nil {
		return false, fmt.Errorf("sqlexec: run decode: %w", err)
	}
	r.cur = row
	return true, nil
}

// runHeap orders run readers by their current row's key columns, breaking
// ties by run index for stability.
type runHeap struct {
	runs []*runReader
	keys []int
}

func (h *runHeap) Len() int { return len(h.runs) }
func (h *runHeap) Less(i, j int) bool {
	if c := compareKeys(h.runs[i].cur, h.runs[j].cur, h.keys); c != 0 {
		return c < 0
	}
	return h.runs[i].runIdx < h.runs[j].runIdx
}
func (h *runHeap) Swap(i, j int) { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *runHeap) Push(x any)    { h.runs = append(h.runs, x.(*runReader)) }
func (h *runHeap) Pop() any {
	n := len(h.runs)
	x := h.runs[n-1]
	h.runs = h.runs[:n-1]
	return x
}
