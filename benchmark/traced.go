package main

import (
	"fmt"
	"io"
	"time"

	"silkroute"
	"silkroute/internal/engine"
	"silkroute/internal/obs"
	"silkroute/internal/plan"
	"silkroute/internal/rxl"
	"silkroute/internal/schema"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tagger"
	"silkroute/internal/tpch"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
	"silkroute/internal/wire"
)

// A traced run drives one workload's pipeline stage by stage from a single
// goroutine, with obs on and a span around every call into a layer, so
// that time, allocation and counter deltas belong to a stage. It spends
// its budget in three parts: an untraced reference through the workload's
// own caller (what the staged numbers are held against), the staged
// documents, and — where the issue asks for them — side-by-side
// comparisons that no single document path contains.
const (
	refShare    = 0.2
	stagedShare = 0.5
)

// tracedResult is a traced run's outcome: per-layer metrics and the
// correctness count over every document it delivered.
type tracedResult struct {
	metrics   metricSet
	attempted int
	failed    int
}

func (r *tracedResult) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// phases turns a budget into the three deadlines.
func phases(budget time.Duration) (ref, staged, end time.Time) {
	now := time.Now()
	at := func(share float64) time.Time { return now.Add(time.Duration(share * float64(budget))) }
	return at(refShare), at(refShare + stagedShare), at(1)
}

// ahead reports whether t lies ahead, but lets the first round of a phase
// run even when the budget is already spent (-quick on a slow box).
func ahead(t time.Time, round int) bool { return round == 0 || time.Now().Before(t) }

// reference delivers documents through c, untraced and with obs off, and
// returns the good ones' median latency in milliseconds.
func (r *tracedResult) reference(c caller, until time.Time) float64 {
	samples := loop(c, func(done int) bool { return !ahead(until, done) })
	total, _, _, _ := docTimes(samples)
	for _, s := range samples {
		r.count(s.ok)
	}
	return percentile(total, 0.5)
}

// tracing switches obs on with a fresh sink for the staged part and off
// again when done.
func tracing() (*obs.Metrics, func()) {
	m := obs.NewMetrics()
	obs.SetGlobal(m)
	return m, func() { obs.SetGlobal(nil) }
}

// spanMS returns the durations, in milliseconds, of the spans of a layer.
func spanMS(spans []span, layer string) []float64 {
	var out []float64
	for _, s := range spans {
		if layerOf(s.Name) == layer {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerMedians sets "<layer>_ms" for each (metric, layer) pair from the
// per-document self time of the layer, and returns the sum of the medians.
func layerMedians(m metricSet, spans []span, pairs ...[2]string) float64 {
	self := layerSelfMS(spans)
	sum := 0.0
	for _, p := range pairs {
		med := median(self[p[1]])
		m.set(p[0], med, "ms", len(self[p[1]]))
		sum += med
	}
	return sum
}

// finish adds the metrics every traced run ends with: what the collector
// did per staged document, and what staging and obs cost against the
// untraced reference.
func finish(m metricSet, mem memCounters, docs int, stagedDocMS, refMS float64) {
	m.set("runtime.gc_cycles_per_doc", float64(mem.cycles)/float64(docs), "count", docs)
	m.set("runtime.gc_pause_ms_per_doc", float64(mem.pauseNS)/1e6/float64(docs), "ms", docs)
	m.set("trace.overhead_ratio", stagedDocMS/refMS, "ratio", docs)
}

// rowSource feeds an engine result to the tagger, as plan.ExecuteDirect
// does.
type rowSource struct{ res *engine.Result }

func (s rowSource) Next() ([]value.Value, bool, error) {
	row, ok := s.res.Next()
	return row, ok, nil
}

// compiled is a view taken as far as its SQL: the stages every staged
// document starts with.
type compiled struct {
	tree     *viewtree.Tree
	streams  []*sqlgen.Stream
	sqls     []string
	requests int64 // estimate requests the planner made; 0 without a search
}

func (c *compiled) sqlBytes() float64 {
	n := 0
	for _, q := range c.sqls {
		n += len(q)
	}
	return float64(n)
}

// compile stages rxl.parse → viewtree.build → (plan.greedy) →
// sqlgen.generate under the doc span. A nil oracle stands for a strategy
// that needs no search and takes its plan from fixed.
func compile(tr *trace, doc, id int, src string, sch *schema.Schema, oracle plan.Oracle, fixed func(*viewtree.Tree) *plan.Plan) (*compiled, error) {
	sp := tr.begin("rxl.parse", doc, id)
	q, err := rxl.Parse(src)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("viewtree.build", doc, id)
	tree, err := viewtree.Build(q, sch)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	c := &compiled{tree: tree}
	var p *plan.Plan
	if oracle != nil {
		sp = tr.begin("plan.greedy", doc, id)
		res, err := plan.Greedy(bg, oracle, tree, plan.DefaultGreedyParams(true))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		p, c.requests = res.BestPlan(tree), res.Requests
	} else {
		p = fixed(tree)
	}
	sp = tr.begin("sqlgen.generate", doc, id)
	c.streams, err = p.Streams()
	for _, st := range c.streams {
		c.sqls = append(c.sqls, st.SQL())
	}
	tr.end(sp)
	return c, err
}

// tag stages tagger.write into v.
func tag(tr *trace, doc, id int, c *compiled, inputs []tagger.Input, v *verifier) (memCounters, error) {
	before := readMem()
	sp := tr.begin("tagger.write", doc, id)
	tg := tagger.New(c.tree)
	err := tg.WriteXML(v, inputs)
	tr.end(sp)
	return readMem().since(before), err
}

// stagedDoc is what one staged document cost beyond its spans.
type stagedDoc struct {
	compiled       *compiled
	fetch, tagging memCounters // allocation of the row-producing stages and of the tagger
	rows, bytes    int64       // tuples handed to the tagger; payload bytes over wire
	ok             bool
}

// stageLocal delivers one document from an in-process engine, stage by
// stage: compile, engine.exec[i] for every stream, tagger.write.
func stageLocal(tr *trace, id int, eng *engine.Database, src string, golden []byte, greedy bool, fixed func(*viewtree.Tree) *plan.Plan) (*stagedDoc, error) {
	var v verifier
	v.reset(golden)
	doc := tr.begin("doc", -1, id)
	defer tr.end(doc)
	var oracle plan.Oracle
	if greedy {
		oracle = eng
	}
	c, err := compile(tr, doc, id, src, eng.Schema, oracle, fixed)
	if err != nil {
		return nil, err
	}
	d := &stagedDoc{compiled: c}
	inputs := make([]tagger.Input, len(c.streams))
	before := readMem()
	for i, st := range c.streams {
		sp := tr.begin(fmt.Sprintf("engine.exec[%d]", i), doc, id)
		res, err := eng.ExecuteQueryContext(bg, st.Query)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		d.rows += int64(res.Len())
		inputs[i] = tagger.Input{Meta: st, Rows: rowSource{res}}
	}
	d.fetch = readMem().since(before)
	if d.tagging, err = tag(tr, doc, id, c, inputs, &v); err != nil {
		return nil, err
	}
	d.bytes, d.ok = int64(v.off), v.ok()
	return d, nil
}

func mbOf(vals []uint64) float64 { return medianOf(vals) / mb }

func medianOf(vals []uint64) float64 {
	f := make([]float64, len(vals))
	for i, v := range vals {
		f[i] = float64(v)
	}
	return median(f)
}

// --- export-cold ---

func (s *coldSystem) traced(tr *trace, budget time.Duration) (*tracedResult, error) {
	refEnd, stagedEnd, end := phases(budget)
	r := &tracedResult{metrics: metricSet{}}
	m := r.metrics
	refMS := r.reference(s, refEnd)

	// The engine behind s.db is not reachable from outside the facade; the
	// generator is deterministic, so this is the same database.
	eng := tpch.Generate(s.cfg.scale(), s.cfg.seed)
	eng.SortBudgetRows = sortBudgetRows

	sink, off := tracing()
	defer off()
	var docs []*stagedDoc
	before := readMem()
	for i := 0; ahead(stagedEnd, i); i++ {
		d, err := stageLocal(tr, i, eng, rxl.Query1Source, s.golden, true, nil)
		if err != nil {
			return nil, err
		}
		r.count(d.ok)
		docs = append(docs, d)
	}
	mem := readMem().since(before)
	n := len(docs)
	last := docs[n-1]

	stageSum := layerMedians(m, tr.spans,
		[2]string{"rxl.parse_ms", "rxl.parse"},
		[2]string{"viewtree.build_ms", "viewtree.build"},
		[2]string{"plan.greedy_ms", "plan.greedy"},
		[2]string{"sqlgen.generate_ms", "sqlgen.generate"},
		[2]string{"engine.exec_ms", "engine.exec"},
		[2]string{"tagger.write_ms", "tagger.write"})
	m.set("sqlgen.sql_bytes", last.compiled.sqlBytes(), "bytes", 0)
	m.set("plan.estimate_requests", float64(last.compiled.requests), "count", 0)
	m.set("plan.streams", float64(len(last.compiled.streams)), "count", 0)

	var fetchB, fetchN, tagB, tagN []uint64
	for _, d := range docs {
		fetchB, fetchN = append(fetchB, d.fetch.bytes), append(fetchN, d.fetch.mallocs)
		tagB, tagN = append(tagB, d.tagging.bytes), append(tagN, d.tagging.mallocs)
	}
	execMS, tagMS := m["engine.exec_ms"].Value, m["tagger.write_ms"].Value
	m.set("engine.rows", float64(last.rows), "count", 0)
	m.set("engine.rows_per_s", float64(last.rows)/(execMS/1e3), "rows/s", n)
	m.set("engine.alloc_mb", mbOf(fetchB), "MB", n)
	m.set("engine.allocs", medianOf(fetchN), "count", n)
	m.set("tagger.xml_mb_per_s", float64(last.bytes)/mb/(tagMS/1e3), "MB/s", n)
	m.set("tagger.alloc_mb", mbOf(tagB), "MB", n)
	m.set("tagger.allocs", medianOf(tagN), "count", n)
	m.set("tagger.alloc_bytes_per_xml_byte", medianOf(tagB)/float64(last.bytes), "B/B", n)

	// The executor's own counters, per document.
	per := func(c *obs.Counter) float64 { return float64(c.Value()) / float64(n) }
	scanned, joined := per(&sink.Exec.RowsScanned), per(&sink.Exec.RowsJoined)
	m.set("sqlexec.rows_scanned", scanned, "count", n)
	m.set("sqlexec.rows_joined", joined, "count", n)
	m.set("sqlexec.rows_sorted", per(&sink.Exec.RowsSorted), "count", n)
	m.set("sqlexec.sort_spills", per(&sink.Exec.SortSpills), "count", n)
	m.set("sqlexec.rows_examined_per_row_out", (scanned+joined)/float64(last.rows), "ratio", n)

	// How much of the untraced document the staged layers account for.
	m.set("trace.stage_sum_over_e2e", stageSum/refMS, "ratio", n)
	finish(m, mem, n, median(spanMS(tr.spans, "doc")), refMS)

	// Side by side, in alternation so that the host's drift reaches all
	// alike: the greedy plan and the two extreme plans staged the same way
	// (the §2 verdict), and the fully partitioned plan through the facade
	// at one worker and at nproc (what parallel stream execution buys).
	var greedy, unified, partitioned, serial, parallel []float64
	var v verifier
	viaFacade := func(workers int) (float64, error) {
		view, err := silkroute.ParseView(s.db, rxl.Query1Source, silkroute.WithParallelism(workers))
		if err != nil {
			return 0, err
		}
		v.reset(s.golden)
		_, err = view.Materialize(bg, &v, silkroute.FullyPartitioned)
		r.count(err == nil && v.ok())
		return ms(time.Since(v.start)), err
	}
	for i := 0; ahead(end, i); i++ {
		for _, side := range []struct {
			into  *[]float64
			fixed func(*viewtree.Tree) *plan.Plan // nil: search
		}{
			{&greedy, nil},
			{&unified, func(t *viewtree.Tree) *plan.Plan { return plan.Unified(t, true) }},
			{&partitioned, plan.FullyPartitioned},
		} {
			scratch := newTrace()
			d, err := stageLocal(scratch, 0, eng, rxl.Query1Source, s.golden, side.fixed == nil, side.fixed)
			if err != nil {
				return nil, err
			}
			r.count(d.ok)
			*side.into = append(*side.into, spanMS(scratch.spans, "doc")[0])
		}
		for _, side := range []struct {
			into    *[]float64
			workers int
		}{{&serial, 1}, {&parallel, 0}} {
			t, err := viaFacade(side.workers)
			if err != nil {
				return nil, err
			}
			*side.into = append(*side.into, t)
		}
	}
	g, u, p := median(greedy), median(unified), median(partitioned)
	m.set("plan.greedy_doc_ms", g, "ms", len(greedy))
	m.set("plan.unified_doc_ms", u, "ms", len(unified))
	m.set("plan.partitioned_doc_ms", p, "ms", len(partitioned))
	m.set("plan.greedy_gain", min(u, p)/g, "ratio", len(greedy))
	m.set("plan.parallel_gain", median(serial)/median(parallel), "ratio", len(serial))
	return r, nil
}

// --- export-sharded ---

// resumeSpec is the contract a sorted stream opens with: the scatter-gather
// merge keys on its sort columns (plan.ExecuteWire builds the same).
func resumeSpec(st *sqlgen.Stream) *wire.ResumeSpec {
	if !st.Resumable() {
		return nil
	}
	return &wire.ResumeSpec{KeyCols: st.SortKey(), Rewrite: st.ResumeSQL}
}

// fetched is what opening and draining a plan's streams through a backend
// cost.
type fetched struct {
	rows, bytes int64
	mem         memCounters
	ms          float64
}

// fetchAll opens and drains every stream of c through b, one after the
// other, keeping the rows when keep is set. Spans go to tr under doc when
// tr is not nil.
func fetchAll(tr *trace, doc, id int, b wire.Backend, c *compiled, keep bool) (*fetched, [][][]value.Value, error) {
	f := &fetched{}
	var data [][][]value.Value
	before, start := readMem(), time.Now()
	for i, st := range c.streams {
		var sp int
		if tr != nil {
			sp = tr.begin(fmt.Sprintf("wire.open[%d]", i), doc, id)
		}
		rows, err := b.QueryResumable(bg, c.sqls[i], resumeSpec(st))
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return nil, nil, err
		}
		if tr != nil {
			sp = tr.begin(fmt.Sprintf("wire.drain[%d]", i), doc, id)
		}
		var kept [][]value.Value
		for {
			row, err := rows.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rows.Close()
				return nil, nil, err
			}
			if keep {
				kept = append(kept, row)
			}
		}
		f.rows, f.bytes = f.rows+rows.RowCount, f.bytes+rows.BytesRead
		rows.Close()
		if tr != nil {
			tr.end(sp)
		}
		data = append(data, kept)
	}
	f.mem, f.ms = readMem().since(before), ms(time.Since(start))
	return f, data, nil
}

// stageWire delivers one document over b, stage by stage: compile (no
// search: the plan is fixed), wire.open[i] + wire.drain[i] for every
// stream, tagger.write from the drained rows.
func stageWire(tr *trace, id int, b wire.Backend, sch *schema.Schema, src string, golden []byte) (*stagedDoc, *fetched, error) {
	var v verifier
	v.reset(golden)
	doc := tr.begin("doc", -1, id)
	defer tr.end(doc)
	c, err := compile(tr, doc, id, src, sch, nil, plan.FullyPartitioned)
	if err != nil {
		return nil, nil, err
	}
	f, data, err := fetchAll(tr, doc, id, b, c, true)
	if err != nil {
		return nil, nil, err
	}
	inputs := make([]tagger.Input, len(c.streams))
	for i, st := range c.streams {
		inputs[i] = tagger.Input{Meta: st, Rows: &tagger.SliceSource{RowsData: data[i]}}
	}
	d := &stagedDoc{compiled: c, fetch: f.mem, rows: f.rows}
	if d.tagging, err = tag(tr, doc, id, c, inputs, &v); err != nil {
		return nil, nil, err
	}
	d.bytes, d.ok = int64(v.off), v.ok()
	return d, f, nil
}

func (s *shardSystem) traced(tr *trace, budget time.Duration) (*tracedResult, error) {
	refEnd, stagedEnd, end := phases(budget)
	r := &tracedResult{metrics: metricSet{}}
	m := r.metrics
	refMS := r.reference(s, refEnd)

	// The layers below the facade: one wire client per shard under the
	// scatter-gather set, a third server holding the whole database behind
	// a single client, and the same database as an in-process engine.
	fullAddr, stopFull, err := serveWire(s.db)
	if err != nil {
		return nil, err
	}
	defer stopFull()
	single := wire.Dial(fullAddr)
	defer single.Close()
	shards := make([]wire.Backend, len(s.addrs))
	for i, a := range s.addrs {
		shards[i] = wire.Dial(a)
	}
	sharded := wire.NewShardSet(shards)
	defer sharded.Close()
	eng := tpch.Generate(s.cfg.scale(), s.cfg.seed)
	eng.SortBudgetRows = sortBudgetRows
	sch := tpch.Schema()

	sink, off := tracing()
	defer off()
	var docs []*stagedDoc
	var fetches []*fetched
	before := readMem()
	for i := 0; ahead(stagedEnd, i); i++ {
		d, f, err := stageWire(tr, i, sharded, sch, rxl.Query1Source, s.golden)
		if err != nil {
			return nil, err
		}
		r.count(d.ok)
		docs, fetches = append(docs, d), append(fetches, f)
	}
	mem := readMem().since(before)
	n := len(docs)
	last, lastFetch := docs[n-1], fetches[n-1]
	dials, resumes := sink.Client.Dials.Value(), sink.Client.Resumes.Value()

	self := layerSelfMS(tr.spans)
	wireMS := make([]float64, n) // per document: every open and drain
	for i := range wireMS {
		wireMS[i] = self["wire.open"][i] + self["wire.drain"][i]
	}
	stageSum := median(wireMS) + layerMedians(m, tr.spans,
		[2]string{"rxl.parse_ms", "rxl.parse"},
		[2]string{"viewtree.build_ms", "viewtree.build"},
		[2]string{"sqlgen.generate_ms", "sqlgen.generate"},
		[2]string{"tagger.write_ms", "tagger.write"})
	m.set("sqlgen.sql_bytes", last.compiled.sqlBytes(), "bytes", 0)
	m.set("plan.streams", float64(len(last.compiled.streams)), "count", 0)
	var tagB, tagN []uint64
	for _, d := range docs {
		tagB, tagN = append(tagB, d.tagging.bytes), append(tagN, d.tagging.mallocs)
	}
	m.set("tagger.xml_mb_per_s", float64(last.bytes)/mb/(m["tagger.write_ms"].Value/1e3), "MB/s", n)
	m.set("tagger.alloc_mb", mbOf(tagB), "MB", n)
	m.set("tagger.allocs", medianOf(tagN), "count", n)
	m.set("tagger.alloc_bytes_per_xml_byte", medianOf(tagB)/float64(last.bytes), "B/B", n)
	opens := spanMS(tr.spans, "wire.open")
	m.set("wire.first_row_ms", median(opens), "ms", len(opens))
	m.set("wire.rows", float64(lastFetch.rows), "count", 0)
	m.set("wire.bytes", float64(lastFetch.bytes), "bytes", 0)
	m.set("wire.dials", float64(dials)/float64(n), "count", n)
	m.set("wire.resumes", float64(resumes)/float64(n), "count", n)
	m.set("trace.stage_sum_over_e2e", stageSum/refMS, "ratio", n)
	finish(m, mem, n, median(spanMS(tr.spans, "doc")), refMS)

	// Side by side, over the same streams: drained through one endpoint,
	// through the two shards and their merge, and executed in process with
	// no wire at all; plus the optimizer round trip the planner would pay.
	c := last.compiled
	var viaSingle, viaSharded, direct, estimate []float64
	var singleB, directB []uint64
	for i := 0; ahead(end, i); i++ {
		f, _, err := fetchAll(nil, 0, 0, single, c, false)
		if err != nil {
			return nil, err
		}
		viaSingle, singleB = append(viaSingle, f.ms), append(singleB, f.mem.bytes)
		if f, _, err = fetchAll(nil, 0, 0, sharded, c, false); err != nil {
			return nil, err
		}
		viaSharded = append(viaSharded, f.ms)

		before, start := readMem(), time.Now()
		for _, st := range c.streams {
			res, err := eng.ExecuteQueryContext(bg, st.Query)
			if err != nil {
				return nil, err
			}
			for _, ok := res.Next(); ok; _, ok = res.Next() {
			}
		}
		direct, directB = append(direct, ms(time.Since(start))), append(directB, readMem().since(before).bytes)

		for _, q := range c.sqls {
			start := time.Now()
			if _, err := sharded.Estimate(bg, q); err != nil {
				return nil, err
			}
			estimate = append(estimate, ms(time.Since(start)))
		}
	}
	one, two, none := median(viaSingle), median(viaSharded), median(direct)
	m.set("wire.single_drain_ms", one, "ms", len(viaSingle))
	m.set("wire.sharded_drain_ms", two, "ms", len(viaSharded))
	m.set("wire.rows_per_s", float64(lastFetch.rows)/(two/1e3), "rows/s", len(viaSharded))
	m.set("wire.overhead_ms", two-none, "ms", len(direct))
	m.set("wire.merge_overhead_ms", two-one, "ms", len(viaSharded))
	m.set("wire.estimate_ms", median(estimate), "ms", len(estimate))
	m.set("wire.alloc_mb", mbOf(singleB)-mbOf(directB), "MB", len(singleB))
	m.set("engine.exec_ms", none, "ms", len(direct))
	m.set("engine.rows", float64(lastFetch.rows), "count", 0)
	m.set("engine.rows_per_s", float64(lastFetch.rows)/(none/1e3), "rows/s", len(direct))
	m.set("engine.alloc_mb", mbOf(directB), "MB", len(directB))
	return r, nil
}

// --- serve-hot and serve-churn ---

func (s *serveSystem) traced(tr *trace, budget time.Duration) (*tracedResult, error) {
	refEnd, _, end := phases(budget)
	r := &tracedResult{metrics: metricSet{}}
	m := r.metrics
	c := s.clients[0]
	refMS := r.reference(c, refEnd)

	sink, off := tracing()
	defer off()
	var warmMS, coldMS, hitMS []float64
	var inProcess, inProcessHits int64
	var v verifier
	before := readMem()
	n := 0
	for ; ahead(end, n); n++ {
		// http.request: one read of the caller's script over loopback HTTP.
		// The script knows which reads follow a write; the cache's own miss
		// counter says which of them actually ran cold.
		misses := sink.Cache.FragmentMisses.Value()
		sp := tr.begin("http.request", -1, n)
		err := c.do(n, &v)
		tr.end(sp)
		r.count(err == nil && v.ok())
		t := float64(tr.spans[sp].End-tr.spans[sp].Start) / 1e6
		if sink.Cache.FragmentMisses.Value() > misses {
			coldMS = append(coldMS, t)
		} else {
			warmMS = append(warmMS, t)
		}

		// handle.materialize, beside it: the same view on the same warmed
		// handle without HTTP.
		k := (n + c.offset) % len(servedViews)
		s.data.RLock()
		v.reset(s.goldens[k])
		sp = tr.begin("handle.materialize", -1, n)
		rep, err := s.handles[k].Materialize(bg, &v)
		tr.end(sp)
		s.data.RUnlock()
		r.count(err == nil && v.ok())
		inProcess++
		if err == nil && rep.FragmentCached {
			inProcessHits++
			hitMS = append(hitMS, float64(tr.spans[sp].End-tr.spans[sp].Start)/1e6)
		}
	}
	mem := readMem().since(before)

	requestMS := median(spanMS(tr.spans, "http.request"))
	m.set("viewsvc.request_ms", requestMS, "ms", n)
	m.set("viewsvc.warm_doc_ms", median(warmMS), "ms", len(warmMS))
	if len(coldMS) > 0 {
		m.set("viewsvc.cold_doc_ms", median(coldMS), "ms", len(coldMS))
	}
	m.set("fragcache.hit_ms", median(hitMS), "ms", len(hitMS))
	m.set("viewsvc.overhead_ms", median(warmMS)-median(hitMS), "ms", len(warmMS))
	m.set("viewsvc.rejected", float64(sink.HTTP.Rejected.Value()+sink.HTTP.RejectedTenant.Value()), "count", 0)
	// The cache counters also saw the in-process reads; take those out, so
	// the ratio is the HTTP reads'.
	hits := sink.Cache.FragmentHits.Value() - inProcessHits
	lookups := sink.Cache.FragmentHits.Value() + sink.Cache.FragmentMisses.Value() - inProcess
	m.set("fragcache.hit_ratio", float64(hits)/float64(lookups), "ratio", int(lookups))
	m.set("fragcache.invalidations", float64(sink.Cache.FragmentInvalidations.Value()), "count", 0)
	if plans := sink.Cache.PlanHits.Value() + sink.Cache.PlanMisses.Value(); plans > 0 {
		m.set("plancache.hit_ratio", float64(sink.Cache.PlanHits.Value())/float64(plans), "ratio", int(plans))
	}
	// No trace.stage_sum_over_e2e here: a read is one span, so the sum of
	// its stages is trace.overhead_ratio under another name.
	finish(m, mem, n, requestMS, refMS)
	return r, nil
}
