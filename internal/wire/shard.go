package wire

// Shard sets. The paper's middleware assumes the whole database lives
// behind one RDBMS; this file lets the base tables be horizontally
// partitioned across N backends. Every sorted stream fans out as a
// scatter query — the same SQL issued to every shard concurrently — and
// the partial streams are spliced back through a k-way merge on the
// structural sort key (the heap idiom of internal/sqlexec's external
// sort), so the tagger sees one globally sorted stream and the document
// stays byte-identical to the unsharded run.
//
// Two invariants make the merge exact:
//
//   - Each shard's partial stream is itself sorted by the structural key
//     (the ORDER BY ships with the scatter SQL, per shard).
//   - Full-key ties are byte-identical rows under the sorted outer
//     union's bag semantics, so ties may be emitted in any shard order
//     without changing the document. The heap still breaks ties by shard
//     index, keeping the merge deterministic.
//
// Each shard is a full Backend — a bare Client or a ReplicaSet — and each
// shard's partial stream heals itself (resume.go's reopen loop, on that
// shard's endpoints) underneath the merge: a shard replica dying
// mid-scatter is reopened at its frontier and the merge never notices.
// Only when a shard stream has spent all its reopens does the merged
// stream die, with the shard's typed ErrResumeExhausted.

import (
	"container/heap"
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/obs"
	"silkroute/internal/value"
)

// ShardSet fans wire requests out to N shard backends and merges sorted
// partial streams. It implements Backend, so plan executors and the
// facade are topology-blind: a single client, a replica set, and a shard
// set of replica sets all look the same at the execution seam.
type ShardSet struct {
	shards []Backend
	names  []string
}

var _ Backend = (*ShardSet)(nil)

// ShardOption configures a ShardSet.
type ShardOption func(*ShardSet)

// WithShardNames labels shards for error messages and metrics. Extra
// names are ignored; missing ones fall back to the shard index.
func WithShardNames(names []string) ShardOption {
	return func(s *ShardSet) {
		for i := range s.shards {
			if i < len(names) && names[i] != "" {
				s.names[i] = names[i]
			}
		}
	}
}

// NewShardSet builds a shard set over the given backends, one per shard.
// Shard order is the partition order: shard i serves partition i. It
// panics on an empty shard list, mirroring NewReplicaSet.
func NewShardSet(shards []Backend, opts ...ShardOption) *ShardSet {
	if len(shards) == 0 {
		panic("wire: NewShardSet with no shards")
	}
	s := &ShardSet{shards: shards, names: make([]string, len(shards))}
	for i := range s.names {
		s.names[i] = fmt.Sprintf("shard %d", i)
	}
	for _, o := range opts {
		o(s)
	}
	if m := obs.M(); m != nil {
		m.Client.Shards.Set(int64(len(shards)))
	}
	return s
}

// Query submits sql to every shard and returns the merged stream. Without
// a resume spec there is no sort key to merge on, so the partial streams
// are concatenated in shard order — exact only for unordered streams
// (the §6 ablation); sorted plans always arrive via QueryResumable.
func (s *ShardSet) Query(ctx context.Context, sql string) (*Rows, error) {
	return s.QueryResumable(ctx, sql, nil)
}

// QueryResumable scatters sql to every shard concurrently and splices the
// sorted partial streams through a k-way merge on spec.KeyCols. The spec
// also rides into each shard backend, so each shard stream heals itself
// underneath the merge. A single-shard set delegates outright.
func (s *ShardSet) QueryResumable(ctx context.Context, sql string, spec *ResumeSpec) (*Rows, error) {
	if len(s.shards) == 1 {
		return s.shards[0].QueryResumable(ctx, sql, spec)
	}
	start := time.Now()
	children := make([]*Rows, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			children[i], errs[i] = s.shards[i].QueryResumable(ctx, sql, spec)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, c := range children {
				if c != nil {
					c.Close()
				}
			}
			return nil, fmt.Errorf("wire: %s: %w", s.names[i], err)
		}
	}
	for i := 1; i < len(children); i++ {
		if len(children[i].Columns) != len(children[0].Columns) {
			for _, c := range children {
				c.Close()
			}
			return nil, fmt.Errorf("wire: %s: %d columns, %s has %d",
				s.names[i], len(children[i].Columns), s.names[0], len(children[0].Columns))
		}
	}
	if m := obs.M(); m != nil {
		m.Client.ScatterStreams.Add(int64(len(children)))
	}
	attempts := 1
	for _, c := range children {
		attempts += c.Attempts - 1
	}
	var keyCols []int
	if spec != nil {
		keyCols = spec.KeyCols
	}
	return &Rows{
		Columns:  children[0].Columns,
		Attempts: attempts,
		merge:    newShardMerge(children, keyCols, s.names, start),
	}, nil
}

// Estimate fans the estimate out to every shard and combines: costs and
// cardinalities add across partitions; width is the row-weighted mean.
func (s *ShardSet) Estimate(ctx context.Context, sql string) (engine.Estimate, error) {
	ests := make([]engine.Estimate, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ests[i], errs[i] = s.shards[i].Estimate(ctx, sql)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return engine.Estimate{}, fmt.Errorf("wire: %s: %w", s.names[i], err)
		}
	}
	var out engine.Estimate
	var widthRows float64
	for _, e := range ests {
		out.Cost += e.Cost
		out.Rows += e.Rows
		widthRows += e.Width * e.Rows
		if e.Width > out.Width {
			out.Width = e.Width // fallback when every shard estimates zero rows
		}
	}
	if out.Rows > 0 {
		out.Width = widthRows / out.Rows
	}
	return out, nil
}

// StatsEpoch combines the shard epochs by summing them: any shard's write
// bumps its own epoch and therefore the combined one, so cache stamps
// keyed on the sum stay conservative. A single unreachable shard fails
// the probe (the caller treats that as a cold run).
func (s *ShardSet) StatsEpoch(ctx context.Context) (int64, error) {
	epochs := make([]int64, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			epochs[i], errs[i] = s.shards[i].StatsEpoch(ctx)
		}(i)
	}
	wg.Wait()
	var sum int64
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.names[i], err)
		}
		sum += epochs[i]
	}
	return sum, nil
}

// IdleConns sums pooled idle connections over every shard.
func (s *ShardSet) IdleConns() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.IdleConns()
	}
	return n
}

// Close releases every shard backend, returning the first error.
func (s *ShardSet) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ShardStat is one shard's contribution to a merged stream: how many rows
// and bytes it supplied, what recovery machinery it burned underneath the
// merge, and which of its replicas ended up serving.
type ShardStat struct {
	// Shard is the shard index within its ShardSet.
	Shard int
	// Rows and Bytes are the shard's share of the merged stream.
	Rows  int64
	Bytes int64
	// Resumes and Failovers count the shard stream's own reopens.
	Resumes   int
	Failovers int
	// Replica is the replica index serving the shard's partial stream.
	Replica int
}

// ShardStats reports the per-shard breakdown of a merged stream, or nil
// for streams that never scattered (single client / replica set).
func (r *Rows) ShardStats() []ShardStat {
	if r.merge == nil {
		return nil
	}
	out := make([]ShardStat, len(r.merge.children))
	for i, c := range r.merge.children {
		out[i] = ShardStat{
			Shard:     i,
			Rows:      c.RowCount,
			Bytes:     c.BytesRead,
			Resumes:   c.Resumes,
			Failovers: c.Failovers,
			Replica:   c.Replica,
		}
	}
	return out
}

// mergeHead is one shard's buffered front row inside the merge heap.
type mergeHead struct {
	row   []value.Value
	shard int
}

// mergeHeap orders heads by the structural sort key, shard index breaking
// ties — the run-index tiebreak of internal/sqlexec's external-sort merge.
// Because full-key ties are byte-identical rows, the tiebreak affects
// which physical copy is emitted first, never the document bytes.
type mergeHeap struct {
	heads   []mergeHead
	keyCols []int
}

func (h *mergeHeap) Len() int { return len(h.heads) }
func (h *mergeHeap) Less(i, j int) bool {
	a, b := h.heads[i], h.heads[j]
	for _, k := range h.keyCols {
		if c := value.Compare(a.row[k], b.row[k]); c != 0 {
			return c < 0
		}
	}
	return a.shard < b.shard
}
func (h *mergeHeap) Swap(i, j int)      { h.heads[i], h.heads[j] = h.heads[j], h.heads[i] }
func (h *mergeHeap) Push(x interface{}) { h.heads = append(h.heads, x.(mergeHead)) }
func (h *mergeHeap) Pop() interface{} {
	old := h.heads
	n := len(old)
	x := old[n-1]
	h.heads = old[:n-1]
	return x
}

// shardMerge drives a merged Rows: it owns the per-shard child streams
// and serves Next/Close on their behalf. With key columns it k-way-merges
// (children are sorted); without, it concatenates in shard order.
type shardMerge struct {
	children []*Rows
	names    []string
	h        mergeHeap
	primed   bool
	concat   int // next child for key-less concatenation
	start    time.Time
}

func newShardMerge(children []*Rows, keyCols []int, names []string, start time.Time) *shardMerge {
	return &shardMerge{
		children: children,
		names:    names,
		h:        mergeHeap{keyCols: keyCols},
		start:    start,
	}
}

// next serves Rows.Next for a merged stream, keeping r's public counters
// (RowCount, BytesRead, Resumes, Failovers) in step with the children.
func (m *shardMerge) next(r *Rows) ([]value.Value, error) {
	if r.done {
		return nil, io.EOF
	}
	if m.h.keyCols == nil {
		return m.nextConcat(r)
	}
	if !m.primed {
		m.primed = true
		for i, c := range m.children {
			row, err := c.Next()
			if err == io.EOF {
				continue
			}
			if err != nil {
				return nil, m.fail(r, i, err)
			}
			m.h.heads = append(m.h.heads, mergeHead{row: row, shard: i})
		}
		heap.Init(&m.h)
	}
	if len(m.h.heads) == 0 {
		return nil, m.finish(r)
	}
	head := m.h.heads[0]
	nrow, err := m.children[head.shard].Next()
	switch {
	case err == io.EOF:
		heap.Pop(&m.h)
	case err != nil:
		return nil, m.fail(r, head.shard, err)
	default:
		m.h.heads[0] = mergeHead{row: nrow, shard: head.shard}
		heap.Fix(&m.h, 0)
	}
	r.RowCount++
	m.sync(r)
	return head.row, nil
}

// nextConcat drains the children one after another in shard order.
func (m *shardMerge) nextConcat(r *Rows) ([]value.Value, error) {
	for m.concat < len(m.children) {
		row, err := m.children[m.concat].Next()
		if err == io.EOF {
			m.concat++
			continue
		}
		if err != nil {
			return nil, m.fail(r, m.concat, err)
		}
		r.RowCount++
		m.sync(r)
		return row, nil
	}
	return nil, m.finish(r)
}

// sync folds the children's transfer and recovery counters into the
// merged stream's public fields.
func (m *shardMerge) sync(r *Rows) {
	var bytes int64
	var resumes, failovers int
	for _, c := range m.children {
		bytes += c.BytesRead
		resumes += c.Resumes
		failovers += c.Failovers
	}
	r.BytesRead = bytes
	r.Resumes = resumes
	r.Failovers = failovers
}

// finish retires a cleanly drained merge: every child already hit EOF and
// released itself, so this just settles counters and records the merge
// latency.
func (m *shardMerge) finish(r *Rows) error {
	m.sync(r)
	r.done = true
	if !r.released {
		r.released = true
		if om := obs.M(); om != nil {
			om.Client.ShardMergeSeconds.Observe(time.Since(m.start))
		}
	}
	return io.EOF
}

// fail kills the merged stream after one shard stream spent all its
// reopens: the other children are closed and the error surfaces wrapped
// with the shard's name, preserving its type (errors.Is ErrStreamLost).
func (m *shardMerge) fail(r *Rows, shard int, err error) error {
	m.closeChildren(r)
	return fmt.Errorf("wire: %s: %w", m.names[shard], err)
}

// close serves Rows.Close for a merged stream; idempotent like release.
func (m *shardMerge) close(r *Rows) error {
	m.closeChildren(r)
	return nil
}

func (m *shardMerge) closeChildren(r *Rows) {
	r.done = true
	if r.released {
		return
	}
	r.released = true
	for _, c := range m.children {
		c.Close()
	}
	m.sync(r)
	if om := obs.M(); om != nil {
		om.Client.ShardMergeSeconds.Observe(time.Since(m.start))
	}
}
