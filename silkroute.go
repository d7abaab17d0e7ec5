package silkroute

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"silkroute/internal/chaos"
	"silkroute/internal/engine"
	"silkroute/internal/fragcache"
	"silkroute/internal/plan"
	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/table"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// ErrUnsupportedPlan reports a plan that needs SQL constructs the target
// database's source description says it lacks (§3.4). Test for it with
// errors.Is.
var ErrUnsupportedPlan = errors.New("silkroute: plan not permissible on target")

// ErrStreamLost reports a tuple stream that died mid-flight and could not
// be recovered — resume was disabled, the stream was not resumable, or
// all its reopens were spent. Test for it with errors.Is.
var ErrStreamLost = wire.ErrStreamLost

// ErrCircuitOpen reports a request refused fast because the connection's
// circuit breaker is open (the target failed repeatedly and is cooling
// down). Test for it with errors.Is.
var ErrCircuitOpen = wire.ErrCircuitOpen

// ErrNoHealthyReplica reports a request on a replicated connection
// (Dial(Replicas(...))) refused fast because every replica's circuit breaker
// is open: the set fails closed rather than emitting a partial document.
// Test for it with errors.Is.
var ErrNoHealthyReplica = wire.ErrNoHealthyReplica

// Option configures a view or a remote connection. The same option list is
// accepted by ParseView, ParseRemoteView, Dial, and NewHandle;
// options that do not apply to the value being built (WithResume on a view,
// WithWrapper on a connection) are simply ignored, so one list can be
// shared across both.
type Option func(*config)

type config struct {
	wrapper     string
	reduce      bool
	parallelism int
	strategy    Strategy

	source *Schema

	planCache bool
	fragCache bool
	fragBytes int64

	resume  wire.Resume
	breaker wire.Breaker
}

// WithWrapper sets the document element wrapped around a view's output;
// "" emits a bare element sequence. Default "document". View option.
func WithWrapper(name string) Option {
	return func(c *config) { c.wrapper = name }
}

// WithReduce toggles view-tree reduction (§3.5). Default true; reduction
// alone speeds plans up ~2.5× in the paper's measurements. View option.
func WithReduce(on bool) Option {
	return func(c *config) { c.reduce = on }
}

// WithParallelism bounds how many partition queries run concurrently when a
// view materializes locally, and how many candidate queries the Greedy
// planner costs at once. 0 (the default) means one worker per CPU; 1
// forces strictly serial execution. The document and the planner's choices
// are identical at every setting. View option.
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithStrategy sets the plan strategy a Handle serves by default (clients
// of a view service may still override it per request). Default Greedy.
// Handle option; ignored by plain views, whose Materialize takes the
// strategy explicitly.
func WithStrategy(s Strategy) Option {
	return func(c *config) { c.strategy = s }
}

// WithSource attaches the source description — the schema of the remote
// database: relations, keys, and the foreign-key totality constraints that
// drive edge labeling — to a connection, so views can be compiled against
// it without restating the schema per view (NewHandle relies on this; the
// data itself stays on the server). Connection option.
func WithSource(s *Schema) Option {
	return func(c *config) { c.source = s }
}

// WithResume enables mid-stream failure recovery on a remote connection:
// a tuple stream that dies after delivering rows is reopened with a
// key-range query from its last structural sort key and spliced back
// together, so the document comes out byte-identical to a fault-free run.
// On a replicated topology the reopen goes to a replica other than the
// one the stream died on, back to that one only when no other is usable;
// on a sharded one each shard's stream heals
// itself under the merge. A stream gets at most maxResumes+1 reopens: the
// first maxResumes at its frontier, the last from the top of its query,
// skipping the rows already delivered. A stream whose budget runs out
// fails with ErrStreamLost; <= 0 disables resume, the default.
// Connection option.
func WithResume(maxResumes int) Option {
	return func(c *config) { c.resume = wire.Resume{MaxResumes: maxResumes} }
}

// WithBreaker adds a circuit breaker to a remote connection: threshold
// consecutive transport failures open it, requests then fail fast with
// ErrCircuitOpen until cooldown elapses, after which a single probe
// request decides whether to close it again. threshold <= 0 disables the
// breaker (the default); cooldown 0 means one second. Connection option.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) { c.breaker = wire.Breaker{Threshold: threshold, Cooldown: cooldown} }
}

// clientOptions translates the connection-side options into wire options.
// Each policy's zero value is "off", so both always pass.
func (c *config) clientOptions() []wire.ClientOption {
	return []wire.ClientOption{wire.WithResume(c.resume), wire.WithBreaker(c.breaker)}
}

// apply stamps the view-side options onto a freshly built view. The plan
// memo is the view's own; the fragment cache lives on the view's backend
// (the DB or Remote), so every view sharing a backend shares it.
func (c *config) apply(v *View) {
	v.wrapper, v.reduce, v.parallelism = c.wrapper, c.reduce, c.parallelism
	if c.planCache {
		v.plans = make([]atomic.Pointer[planMemo], len(Strategies()))
	}
	if c.fragCache {
		if v.remote != nil {
			v.frags = v.remote.caches.fragment(c.fragBytes)
		} else {
			v.frags = v.db.caches.fragment(c.fragBytes)
		}
		v.key = v.fingerprint()
	}
	if v.plans != nil || v.frags != nil {
		v.tables = v.tree.Relations()
	}
}

// buildConfig applies opts over the defaults: a "document" wrapper,
// reduction on, the Greedy strategy.
func buildConfig(opts []Option) *config {
	c := &config{wrapper: "document", reduce: true, strategy: Greedy}
	for _, o := range opts {
		o(c)
	}
	return c
}

// DB is a target relational database: an in-memory engine that executes
// the SQL subset and answers the cost-estimate requests SilkRoute's
// planner relies on.
type DB struct {
	eng    *engine.Database
	caches caches
}

// OpenTPCH generates the TPC-H fragment of the paper's Fig. 1 at the given
// scale factor. The same (scale, seed) pair always yields the same data.
// The paper's Config A corresponds to scale 0.001 and Config B to 0.1.
func OpenTPCH(scale float64, seed int64) *DB {
	return &DB{eng: tpch.Generate(scale, seed)}
}

// NewDB creates an empty database from a schema built with NewSchema.
func NewDB(s *Schema) *DB {
	return &DB{eng: engine.NewDatabase(s.s)}
}

// Insert appends one row to a relation. Values may be int, int64,
// float64, string, bool (stored as 0/1), or nil (NULL).
func (db *DB) Insert(relation string, values ...any) error {
	t, err := db.eng.Table(relation)
	if err != nil {
		return err
	}
	row, err := toRow(values)
	if err != nil {
		return fmt.Errorf("silkroute: insert into %s: %w", relation, err)
	}
	return t.Insert(row)
}

// LoadCSV loads a relation from a CSV file whose header matches the
// relation's columns.
func (db *DB) LoadCSV(relation, path string) error {
	t, err := db.eng.Table(relation)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.ReadCSV(f)
}

// LoadCSVDir loads every relation of the schema from "<dir>/<relation>.csv".
// Missing files are skipped, so partial datasets load cleanly; any other
// stat failure (permissions, bad symlink) is reported rather than silently
// treated as an absent file.
func (db *DB) LoadCSVDir(dir string) error {
	for _, name := range db.eng.Schema.RelationNames() {
		path := filepath.Join(dir, name+".csv")
		if _, err := os.Stat(path); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return fmt.Errorf("silkroute: load %s: %w", path, err)
		}
		if err := db.LoadCSV(name, path); err != nil {
			return err
		}
	}
	return nil
}

// DumpCSVDir writes every relation to "<dir>/<relation>.csv".
func (db *DB) DumpCSVDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.eng.Schema.RelationNames() {
		t, err := db.eng.Table(name)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// RowCount returns the number of stored rows in a relation.
func (db *DB) RowCount(relation string) (int, error) {
	t, err := db.eng.Table(relation)
	if err != nil {
		return 0, err
	}
	return t.Len(), nil
}

// Partition returns shard i of n under the horizontal partitioning scheme
// sharded topologies assume: the named relation's rows are split by a
// deterministic hash of their primary key (row r lands on shard
// hash(key(r)) mod n), and every other relation is replicated whole. With
// the shard key on the view's root relation this keeps each sorted
// stream's full-key ties within one shard, so the scatter-gather merge
// reassembles the exact global order; serving the n partitions behind
// Sharded(...) then materializes documents byte-identical to the unsharded
// run. The source database is unchanged.
func (db *DB) Partition(relation string, i, n int) (*DB, error) {
	if n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("silkroute: Partition: shard %d of %d out of range", i, n)
	}
	rel, ok := db.eng.Schema.Relation(relation)
	if !ok {
		return nil, fmt.Errorf("silkroute: Partition: unknown relation %s", relation)
	}
	keyCols := make([]int, len(rel.Key))
	for k, name := range rel.Key {
		if keyCols[k] = rel.ColumnIndex(name); keyCols[k] < 0 {
			return nil, fmt.Errorf("silkroute: Partition: %s key column %s missing", relation, name)
		}
	}
	out := engine.NewDatabase(db.eng.Schema)
	for _, name := range db.eng.Schema.RelationNames() {
		src, err := db.eng.Table(name)
		if err != nil {
			return nil, err
		}
		dst, err := out.Table(name)
		if err != nil {
			return nil, err
		}
		for _, row := range src.Rows {
			if name == relation && shardOf(row, keyCols, n) != i {
				continue
			}
			if err := dst.Insert(append(table.Row(nil), row...)); err != nil {
				return nil, err
			}
		}
	}
	return &DB{eng: out}, nil
}

// shardOf hashes a row's key columns (FNV-1a over their value.AppendKey
// bytes, which are equal exactly for equal values) onto one of n shards.
func shardOf(row table.Row, keyCols []int, n int) int {
	h := fnv.New64a()
	var scratch []byte
	for _, k := range keyCols {
		scratch = value.AppendKey(scratch[:0], row[k])
		h.Write(scratch)
	}
	return int(h.Sum64() % uint64(n))
}

// Serve runs the wire protocol on a listener so remote SilkRoute clients
// can query this database, mirroring the paper's client/server split. It
// blocks until the listener fails; use ServeContext for a server that can
// be shut down.
func (db *DB) Serve(l net.Listener) error {
	srv := &wire.Server{DB: db.eng}
	return srv.Serve(l)
}

// ServeContext serves the wire protocol until ctx is cancelled, then
// drains gracefully: new connections and requests are refused while
// in-flight requests get up to shutdownGrace to finish before their
// connections are force-closed. It returns nil after a clean drain.
func (db *DB) ServeContext(ctx context.Context, l net.Listener) error {
	return serveUntil(ctx, &wire.Server{DB: db.eng}, l)
}

// shutdownGrace bounds how long ServeContext waits for in-flight requests
// when its context ends.
const shutdownGrace = 5 * time.Second

// serveUntil runs srv on l until ctx is cancelled, then shuts it down with
// shutdownGrace for in-flight requests to finish.
func serveUntil(ctx context.Context, srv *wire.Server, l net.Listener) error {
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-done // Serve has returned ErrServerClosed; surface only Shutdown's verdict
	return err
}

// ServeChaosContext is ServeContext with fault injection: the spec (see
// the chaos package's ParseSpec; e.g. "seed=7,cutrow=100" kills each
// query's stream after 100 rows) is applied to every accepted connection
// and to the row streams the server produces. It exists to rehearse the
// client-side resilience machinery — resume, failover, circuit breaking —
// against a server that fails on purpose, deterministically.
func (db *DB) ServeChaosContext(ctx context.Context, l net.Listener, spec string) error {
	sp, err := chaos.ParseSpec(spec)
	if err != nil {
		return err
	}
	in := chaos.New(sp)
	return serveUntil(ctx, &wire.Server{DB: db.eng, RowFault: in.RowFault}, in.Listener(l))
}

// EnableQueryLog starts recording every SQL statement the database
// executes (clearing any previous log); QueryLog returns the record. Off
// by default. Intended for tests and debugging — e.g. asserting that a
// resumed stream re-fetched only the rows at/after its boundary key.
func (db *DB) EnableQueryLog() { db.eng.EnableQueryLog() }

// QueryLogEntry is one executed statement: its SQL text and result size.
type QueryLogEntry = engine.QueryLogEntry

// QueryLog returns the statements executed since EnableQueryLog, in
// order.
func (db *DB) QueryLog() []QueryLogEntry { return db.eng.QueryLog() }

// SetSortBudget bounds the engine's in-memory sorts to the given number
// of rows; larger sorts spill to disk through an external merge sort,
// modeling a memory-constrained server (the paper's Config B machine).
// Zero (the default) means unlimited.
func (db *DB) SetSortBudget(rows int) { db.eng.SortBudgetRows = rows }

// Strategy selects how a view is decomposed into SQL queries.
type Strategy int

// The strategies of the paper's experiments.
const (
	// Unified keeps every view-tree edge: one outer-join SQL query.
	Unified Strategy = iota
	// OuterUnion is the sorted outer-union comparator of
	// Shanmugasundaram et al. (VLDB 2000): one query, union of
	// root-to-leaf join chains.
	OuterUnion
	// FullyPartitioned cuts every edge: one SQL query per view-tree node.
	FullyPartitioned
	// Greedy runs the paper's genPlan algorithm against the database's
	// cost estimates and executes the resulting plan.
	Greedy
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Unified:
		return "unified"
	case OuterUnion:
		return "outer-union"
	case FullyPartitioned:
		return "fully-partitioned"
	case Greedy:
		return "greedy"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies returns every strategy, in declaration order.
func Strategies() []Strategy {
	return []Strategy{Unified, OuterUnion, FullyPartitioned, Greedy}
}

// ParseStrategy parses a strategy name as produced by Strategy.String
// (e.g. for command-line flags). Matching is case-insensitive; a near-miss
// ("greedly", "full-partitioned") gets the closest valid name suggested.
func ParseStrategy(name string) (Strategy, error) {
	all := Strategies()
	for _, s := range all {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	best, bestDist := Unified, len(name)+1
	for _, s := range all {
		if d := editDistance(strings.ToLower(name), s.String()); d < bestDist {
			best, bestDist = s, d
		}
	}
	// Suggest only when the typo is plausibly a slip of the intended name,
	// not when the input is some unrelated word.
	if bestDist <= 1+len(best.String())/3 {
		return 0, fmt.Errorf("silkroute: unknown strategy %q (did you mean %q?)", name, best)
	}
	return 0, fmt.Errorf("silkroute: unknown strategy %q (want unified, outer-union, fully-partitioned or greedy)", name)
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// View is a compiled RXL view bound to a database (local or remote).
// Configuration happens exclusively through Options at construction time
// (WithWrapper, WithReduce, WithParallelism, ...).
type View struct {
	db     *DB
	remote *Remote
	tree   *viewtree.Tree
	// wrapper is the document element wrapped around the view's output;
	// "" emits a bare element sequence. Set with WithWrapper.
	wrapper string
	// reduce applies view-tree reduction (§3.5). On by default; set with
	// WithReduce.
	reduce bool
	// parallelism bounds how many partition queries run concurrently when
	// the view materializes against a local database, and how many
	// candidate queries the Greedy planner costs at once. Set with
	// WithParallelism.
	parallelism int

	// plans is the plan memo, one slot per Strategy; nil unless the view
	// was built with WithPlanCache.
	plans []atomic.Pointer[planMemo]
	// frags is the backend's shared fragment cache; nil unless the view was
	// built with WithFragmentCache. key is the view's fingerprint, its key
	// there.
	frags *fragcache.Cache
	key   uint64
	// tables are the sorted, lower-cased relations the view's rules bind,
	// whose write versions stamp its freshness; set only when the view has
	// a plan memo or a fragment cache.
	tables []string
}

// ParseView compiles an RXL view definition against the database's schema.
func ParseView(db *DB, src string, opts ...Option) (*View, error) {
	q, err := rxl.Parse(src)
	if err != nil {
		return nil, err
	}
	tree, err := viewtree.Build(q, db.eng.Schema)
	if err != nil {
		return nil, err
	}
	v := &View{db: db, tree: tree}
	buildConfig(opts).apply(v)
	return v, nil
}

// EdgeCount returns the number of view-tree edges; the view has 2^EdgeCount
// candidate plans.
func (v *View) EdgeCount() int { return len(v.tree.Edges) }

// NodeCount returns the number of view-tree nodes (XML template elements).
func (v *View) NodeCount() int { return len(v.tree.Nodes) }

// EdgeLabels returns each edge as "parent→child:label" in index order,
// e.g. "supplier→part:*".
func (v *View) EdgeLabels() []string {
	out := make([]string, len(v.tree.Edges))
	for i, e := range v.tree.Edges {
		out[i] = fmt.Sprintf("%s→%s:%s", e.Parent.Tag, e.Child.Tag, e.Label())
	}
	return out
}

// Report describes one materialization: the plan used and its timings.
type Report struct {
	Strategy Strategy
	// Metrics are the run's measurements: Streams (SQL queries executed),
	// QueryTime (the wall clock until every stream is open, the paper's
	// time to first tuple), TotalTime (until the document was fully
	// written), Rows and Bytes transferred, and PerStream, the run broken
	// down per tuple stream in stream order — its SQL, rows, times and, on
	// remote views, bytes, reopens, failovers, serving replica and
	// per-shard breakdown. A fragment-cache hit fills only TotalTime.
	plan.Metrics
	// GreedyMandatory/GreedyOptional are set for the Greedy strategy: the
	// edge indices the planner chose.
	GreedyMandatory []int
	GreedyOptional  []int
	// EstimateRequests is the number of optimizer calls Greedy made.
	EstimateRequests int64
	// PlanCached reports that planning was skipped: the plan came from the
	// view's plan memo (WithPlanCache) at the current stats epoch.
	PlanCached bool
	// FragmentCached reports that the whole document was served from the
	// fragment cache (WithFragmentCache): no planning, no SQL, no tagging —
	// Streams is 0 and PerStream is empty.
	FragmentCached bool
}

// ShardStat is one shard's contribution to a scattered stream: its share
// of the merged rows and bytes, the reopens it spent underneath the
// merge, and the replica that ended up serving it.
type ShardStat = wire.ShardStat

// Materialize evaluates the view with the given strategy and writes the
// XML document to w.
//
// ctx governs the whole materialization: planning (including the Greedy
// strategy's estimate requests), query execution, transfer, and tagging.
// Cancelling it — or exceeding its deadline — interrupts the run promptly,
// even mid-stream against a stalled remote server, and the returned error
// satisfies errors.Is(err, ctx.Err()). Every pooled connection is released.
func (v *View) Materialize(ctx context.Context, w io.Writer, s Strategy) (*Report, error) {
	st, fresh := v.stamp(ctx, v.plans != nil || v.frags != nil)
	if rep, served, err := v.serveCached(ctx, w, s, st, fresh); served {
		return rep, err
	}
	p, rep, err := v.cachedPlan(ctx, s, st, fresh)
	if err != nil {
		return nil, err
	}
	return v.execute(ctx, w, p, rep, st, fresh)
}

// BackendUnhealthy reports whether err means the backend is entirely
// unreachable right now — every replica open-circuit, or the single
// backend's breaker open — the condition under which the view service's
// serve-stale mode answers from Stale. Other
// failures (SQL errors, deadlines, cancellation, mid-stream losses) are
// not degradation candidates: they fail closed.
func BackendUnhealthy(err error) bool {
	return errors.Is(err, ErrNoHealthyReplica) || errors.Is(err, ErrCircuitOpen)
}

// Stale returns the view's cached document without a freshness check: the
// complete fragment-cache entry from the last successful materialization,
// byte-identical to what that run produced, regardless of how stale it has
// since become, and its age. ok=false when the view has no fragment cache
// or no complete entry — the caller must then surface its original error.
//
// The entry is an immutable snapshot: invalidation or eviction after this
// call cannot mutate it, so writing it always yields one complete earlier
// document — never a partial, never mixed bytes.
func (v *View) Stale() (doc io.WriterTo, age time.Duration, ok bool) {
	if v.frags == nil {
		return nil, 0, false
	}
	e := v.frags.Get(v.key)
	if e == nil {
		return nil, 0, false
	}
	return e, e.Age(), true
}

// MaterializePlan evaluates the view with an explicit edge bitmask: bit i
// keeps view-tree edge i. Use EdgeLabels to see the edges. ctx governs the
// run exactly as in Materialize.
//
// Every plan of a view produces the same document, so a warm fragment cache
// serves bitmask runs too.
func (v *View) MaterializePlan(ctx context.Context, w io.Writer, keepBits uint64) (*Report, error) {
	st, fresh := v.stamp(ctx, v.frags != nil)
	if rep, served, err := v.serveCached(ctx, w, Unified, st, fresh); served {
		return rep, err
	}
	p := plan.FromBits(v.tree, keepBits, v.reduce)
	p.Wrapper, p.Parallelism = v.wrapper, v.parallelism
	return v.execute(ctx, w, p, &Report{Strategy: Unified}, st, fresh)
}

// planCold runs actual plan selection — for Greedy the §5 search with its
// estimate requests — and sets the view's wrapper and parallelism on the
// fresh plan, which nothing modifies afterwards.
func (v *View) planCold(ctx context.Context, s Strategy) (*plan.Plan, *Report, error) {
	p, rep, err := v.choosePlan(ctx, s)
	if err != nil {
		return nil, nil, err
	}
	p.Wrapper, p.Parallelism = v.wrapper, v.parallelism
	return p, rep, nil
}

// choosePlan builds the plan strategy s selects for the view.
func (v *View) choosePlan(ctx context.Context, s Strategy) (*plan.Plan, *Report, error) {
	rep := &Report{Strategy: s}
	caps := v.tree.Schema.Supports
	checked := func(p *plan.Plan) (*plan.Plan, *Report, error) {
		ok, err := p.Permissible(caps)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("%w: the %s plan needs SQL constructs the target does not support (left outer join: %v, outer union: %v)",
				ErrUnsupportedPlan, s, caps.LeftOuterJoin, caps.OuterUnion)
		}
		return p, rep, nil
	}
	switch s {
	case Unified:
		return checked(plan.Unified(v.tree, v.reduce))
	case OuterUnion:
		return checked(plan.UnifiedOuterUnion(v.tree, v.reduce))
	case FullyPartitioned:
		return plan.FullyPartitioned(v.tree), rep, nil
	case Greedy:
		var oracle plan.Oracle
		if v.remote != nil {
			oracle = plan.RemoteOracle{Client: v.remote.client}
		} else {
			oracle = v.db.eng
		}
		prm := plan.DefaultGreedyParams(v.reduce)
		prm.Parallelism = v.parallelism
		res, err := plan.Greedy(ctx, oracle, v.tree, prm)
		if err != nil {
			return nil, nil, err
		}
		rep.GreedyMandatory = res.Mandatory
		rep.GreedyOptional = res.Optional
		rep.EstimateRequests = res.Requests
		best := res.BestPlan(v.tree)
		if ok, err := best.Permissible(caps); err != nil {
			return nil, nil, err
		} else if !ok {
			// Fall back to the best family member (or the always-legal
			// fully partitioned plan) the target can execute.
			best, err = plan.BestPermissible(res, v.tree, caps)
			if err != nil {
				return nil, nil, err
			}
		}
		return best, rep, nil
	default:
		return nil, nil, fmt.Errorf("silkroute: unknown strategy %v", s)
	}
}

// execute runs p and writes the document to w. With a fragment cache and a
// request stamp st (fresh), the output is teed into fragment buffers and
// committed under st once the run succeeds and a second stamp, taken at
// commit, still matches: a write racing the materialization discards the
// fill rather than caching bytes of uncertain vintage.
func (v *View) execute(ctx context.Context, w io.Writer, p *plan.Plan, rep *Report, st fragcache.Stamp, fresh bool) (*Report, error) {
	// The tagger splits the recorder's fragments at top-level elements
	// (it finds the recorder's Boundary method), so a hit replays the same
	// writes.
	out := w
	var rec *fragcache.Recorder
	if v.frags != nil && fresh {
		rec = fragcache.NewRecorder(w)
		out = rec
	}

	var m plan.Metrics
	var err error
	if v.remote != nil {
		m, err = plan.ExecuteWire(ctx, v.remote.client, p, out)
	} else {
		m, err = plan.ExecuteDirect(ctx, v.db.eng, p, out)
	}
	if err != nil {
		// Fail-closed: a failed (or killed, resumed-then-lost, cancelled)
		// run caches nothing; rec is dropped with its partial fragments.
		return nil, err
	}
	if rec != nil {
		if cur, ok := v.stamp(ctx, true); ok && st.Fresh(cur) {
			v.frags.Put(v.key, rec.Fragments(), st)
		}
	}
	rep.Metrics = m
	return rep, nil
}

// Explanation describes the plan a strategy chooses for a view, without
// executing it: which view-tree edges the plan family keeps, and the SQL
// of the representative plan's tuple streams. Print it with String.
type Explanation struct {
	Strategy Strategy
	// Edges lists every view-tree edge as "parent→child:label", in index
	// order; MandatoryEdges and OptionalEdges index into it.
	Edges []string
	// MandatoryEdges are the edge indices every plan of the family keeps.
	// For the single-plan strategies this is simply the set of kept edges.
	MandatoryEdges []int
	// OptionalEdges is set for Greedy: edges the family may keep or cut,
	// each subset yielding one near-optimal plan (2^n family members). The
	// representative plan — the one Materialize executes — keeps them all.
	OptionalEdges []int
	// EstimateRequests is the number of optimizer calls Greedy made while
	// choosing the family (zero for the fixed strategies).
	EstimateRequests int64
	// SQL holds the representative plan's queries, one per tuple stream.
	SQL []string
}

// String renders the explanation as an indented, human-readable block.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", e.Strategy)
	opt := make(map[int]bool, len(e.OptionalEdges))
	for _, i := range e.OptionalEdges {
		opt[i] = true
	}
	mand := make(map[int]bool, len(e.MandatoryEdges))
	for _, i := range e.MandatoryEdges {
		mand[i] = true
	}
	fmt.Fprintf(&b, "edges:\n")
	for i, label := range e.Edges {
		state := "cut"
		switch {
		case mand[i]:
			state = "mandatory"
		case opt[i]:
			state = "optional"
		}
		fmt.Fprintf(&b, "  [%d] %s — %s\n", i, label, state)
	}
	if e.Strategy == Greedy {
		fmt.Fprintf(&b, "plan family: %d member(s)\n", 1<<uint(len(e.OptionalEdges)))
		fmt.Fprintf(&b, "estimate requests: %d\n", e.EstimateRequests)
	}
	fmt.Fprintf(&b, "streams: %d\n", len(e.SQL))
	for i, sql := range e.SQL {
		fmt.Fprintf(&b, "  [%d] %s\n", i, sql)
	}
	return b.String()
}

// Explain reports the plan the given strategy would execute — for Greedy,
// it runs the planner (including its estimate requests) but executes no
// queries and writes no document. The explanation's edge sets are exactly
// the ones a subsequent Materialize with the same strategy uses.
func (v *View) Explain(ctx context.Context, s Strategy) (*Explanation, error) {
	st, fresh := v.stamp(ctx, v.plans != nil)
	p, rep, err := v.cachedPlan(ctx, s, st, fresh)
	if err != nil {
		return nil, err
	}
	e := &Explanation{
		Strategy:         s,
		Edges:            v.EdgeLabels(),
		EstimateRequests: rep.EstimateRequests,
	}
	if s == Greedy {
		e.MandatoryEdges = append(e.MandatoryEdges, rep.GreedyMandatory...)
		e.OptionalEdges = append(e.OptionalEdges, rep.GreedyOptional...)
	} else {
		for i, keep := range p.Keep {
			if keep {
				e.MandatoryEdges = append(e.MandatoryEdges, i)
			}
		}
	}
	streams, err := p.Streams()
	if err != nil {
		return nil, err
	}
	for _, st := range streams {
		e.SQL = append(e.SQL, st.SQL())
	}
	return e, nil
}

// Schema declares the relations of a database in the paper's datalog-like
// style: keys, columns, and the foreign keys whose totality drives edge
// labeling.
type Schema struct {
	s *schema.Schema
}

// NewSchema returns an empty schema with full SQL capabilities.
func NewSchema() *Schema { return &Schema{s: schema.New()} }

// ColumnType identifies a column's type.
type ColumnType = string

// Column types accepted by AddRelation.
const (
	Int    ColumnType = "int"
	Float  ColumnType = "float"
	String ColumnType = "string"
)

// AddRelation declares a relation. Columns alternate name/type pairs:
//
//	s.AddRelation("Part", []string{"partkey"},
//	    "partkey", silkroute.Int, "name", silkroute.String)
func (sc *Schema) AddRelation(name string, key []string, nameTypePairs ...string) error {
	if len(nameTypePairs)%2 != 0 {
		return fmt.Errorf("silkroute: AddRelation(%s): odd name/type list", name)
	}
	cols := make([]schema.Column, 0, len(nameTypePairs)/2)
	for i := 0; i < len(nameTypePairs); i += 2 {
		k, err := kindOf(nameTypePairs[i+1])
		if err != nil {
			return fmt.Errorf("silkroute: AddRelation(%s): column %s: %w", name, nameTypePairs[i], err)
		}
		cols = append(cols, schema.Column{Name: nameTypePairs[i], Type: k})
	}
	_, err := sc.s.AddRelation(name, key, cols...)
	return err
}

// SetCapabilities restricts the SQL constructs the target database
// supports (§3.4's source description). Plans needing unsupported
// constructs are rejected, and the Greedy strategy restricts itself to
// permissible plans — the fully partitioned plan needs nothing optional
// and always remains legal.
func (sc *Schema) SetCapabilities(leftOuterJoin, outerUnion bool) {
	sc.s.Supports = schema.Capabilities{
		LeftOuterJoin: leftOuterJoin,
		OuterUnion:    outerUnion,
	}
}

// AddForeignKey declares a foreign key; total means every source row has a
// matching target row (what makes a child element guaranteed, i.e. a '1'
// or '+' edge).
func (sc *Schema) AddForeignKey(fromRel string, fromCols []string, toRel string, toCols []string, total bool) error {
	return sc.s.AddForeignKey(schema.ForeignKey{
		FromRelation: fromRel, FromColumns: fromCols,
		ToRelation: toRel, ToColumns: toCols, Total: total,
	})
}
