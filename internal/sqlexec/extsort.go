package sqlexec

import (
	"bufio"
	"container/heap"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

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

// keyedRow pairs a row with its precomputed sort key.
type keyedRow struct {
	key []value.Value
	row table.Row
}

func lessKeyed(a, b keyedRow) bool {
	for i := range a.key {
		if c := value.Compare(a.key[i], b.key[i]); c != 0 {
			return c < 0
		}
	}
	return false
}

// sortKeyed sorts rows by key, spilling to temporary files when the input
// exceeds budget. The sort is stable in the in-memory case and stable
// across run boundaries in the external case (ties broken by run order).
func sortKeyed(ctx context.Context, rows []keyedRow, budget int) ([]keyedRow, error) {
	if budget <= 0 || len(rows) <= budget {
		sort.SliceStable(rows, func(i, j int) bool { return lessKeyed(rows[i], rows[j]) })
		return rows, nil
	}
	return externalSort(ctx, rows, budget)
}

func externalSort(ctx context.Context, rows []keyedRow, budget int) ([]keyedRow, error) {
	if len(rows) == 0 {
		return rows, nil
	}
	nkeys := len(rows[0].key)
	ncols := len(rows[0].row)

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
			return nil, err
		}
		end := start + budget
		if end > len(rows) {
			end = len(rows)
		}
		chunk := rows[start:end]
		sort.SliceStable(chunk, func(i, j int) bool { return lessKeyed(chunk[i], chunk[j]) })
		f, err := os.CreateTemp("", "silkroute-sort-*.run")
		if err != nil {
			return nil, fmt.Errorf("sqlexec: spill: %w", err)
		}
		runs = append(runs, f)
		w := bufio.NewWriterSize(f, 256<<10)
		for _, kr := range chunk {
			buf = buf[:0]
			buf = value.EncodeRow(buf, kr.key)
			buf = value.EncodeRow(buf, kr.row)
			binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
			if _, err := w.Write(hdr[:]); err != nil {
				return nil, fmt.Errorf("sqlexec: spill write: %w", err)
			}
			if _, err := w.Write(buf); err != nil {
				return nil, fmt.Errorf("sqlexec: spill write: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			return nil, fmt.Errorf("sqlexec: spill flush: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("sqlexec: spill rewind: %w", err)
		}
	}

	if m := obs.M(); m != nil {
		m.Exec.SortSpills.Add(int64(len(runs)))
	}

	// K-way merge.
	readers := make([]*runReader, len(runs))
	h := &runHeap{}
	for i, f := range runs {
		readers[i] = &runReader{r: bufio.NewReaderSize(f, 256<<10), nkeys: nkeys, ncols: ncols, runIdx: i}
		ok, err := readers[i].next()
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Push(h, readers[i])
		}
	}
	out := make([]keyedRow, 0, len(rows))
	for h.Len() > 0 {
		if err := pollCtx(ctx, len(out)); err != nil {
			return nil, err
		}
		r := heap.Pop(h).(*runReader)
		out = append(out, r.cur)
		ok, err := r.next()
		if err != nil {
			return nil, err
		}
		if ok {
			heap.Push(h, r)
		}
	}
	return out, nil
}

// runReader streams keyedRows back from one spilled run.
type runReader struct {
	r      *bufio.Reader
	nkeys  int
	ncols  int
	runIdx int
	cur    keyedRow
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
	all, err := value.DecodeRow(r.buf, r.nkeys+r.ncols)
	if err != nil {
		return false, fmt.Errorf("sqlexec: run decode: %w", err)
	}
	r.cur = keyedRow{key: all[:r.nkeys], row: all[r.nkeys:]}
	return true, nil
}

// runHeap orders run readers by their current row's key, breaking ties by
// run index for stability.
type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if lessKeyed(h[i].cur, h[j].cur) {
		return true
	}
	if lessKeyed(h[j].cur, h[i].cur) {
		return false
	}
	return h[i].runIdx < h[j].runIdx
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
