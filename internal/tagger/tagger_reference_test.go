package tagger

// The reference tagger: the straightforward map-based implementation the
// compiled one replaced, kept test-only as the oracle of the differential
// tests, unchanged but for its names and its dropped metrics record. Every row becomes fresh instances
// with their own key vectors and value maps, which is slow and allocates,
// but is short enough to be obviously right.

import (
	"encoding/xml"
	"fmt"
	"io"

	"silkroute/internal/value"
	"silkroute/internal/viewtree"
)

// refKeyPos is one position of the global structural key
// L1,V(1,*),L2,V(2,*),…
type refKeyPos struct {
	isL   bool
	level int
	ref   viewtree.VarRef
}

// refInstance is one XML node instance reconstructed from a row.
type refInstance struct {
	node *viewtree.Node
	// key is the instance's global structural key vector.
	key []value.Value
	// vals maps the node's args to this instance's values.
	vals map[viewtree.VarRef]value.Value
}

// refCompareKeys orders instances in document order.
func refCompareKeys(a, b []value.Value) int {
	for i := range a {
		va, vb := a[i], b[i]
		switch {
		case va.IsNull() && vb.IsNull():
			continue
		case va.IsNull():
			return -1
		case vb.IsNull():
			return 1
		}
		if c := value.Compare(va, vb); c != 0 {
			return c
		}
	}
	return 0
}

// refTagger merges partitioned tuple streams and writes the XML document.
type refTagger struct {
	tree *viewtree.Tree
	// Wrapper, when non-empty, wraps the whole output in one root element
	// so the result is a well-formed document even when the view's root
	// template produces many instances.
	Wrapper string

	positions []refKeyPos
	posIndex  map[viewtree.VarRef]int // var ref → key position
	lIndex    []int                   // level (1-based) → key position
}

// newRefTagger builds a tagger for a view tree.
func newRefTagger(t *viewtree.Tree) *refTagger {
	tg := &refTagger{tree: t, Wrapper: "document", posIndex: make(map[viewtree.VarRef]int)}
	depth := 0
	for _, n := range t.Nodes {
		depth = max(depth, n.Level())
	}
	tg.lIndex = make([]int, depth+1)
	for lvl := 1; lvl <= depth; lvl++ {
		tg.lIndex[lvl] = len(tg.positions)
		tg.positions = append(tg.positions, refKeyPos{isL: true, level: lvl})
		for _, v := range t.Vars {
			if v.Level == lvl {
				tg.posIndex[v.Ref] = len(tg.positions)
				tg.positions = append(tg.positions, refKeyPos{ref: v.Ref})
			}
		}
	}
	return tg
}

// refStreamState is the per-stream cursor: the row decoder and the pending
// instances of the current row.
type refStreamState struct {
	in      Input
	colIdx  map[string]int                   // column name → row index
	lCols   map[int]int                      // level → row index of dynamic L column
	last    map[*viewtree.Node][]value.Value // node → last emitted key
	pending []*refInstance
	done    bool
}

// WriteXML merges the streams and writes the document to w.
func (tg *refTagger) WriteXML(w io.Writer, inputs []Input) error {
	states := make([]*refStreamState, len(inputs))
	for i, in := range inputs {
		st := &refStreamState{
			in:     in,
			colIdx: make(map[string]int),
			lCols:  make(map[int]int),
			last:   make(map[*viewtree.Node][]value.Value),
		}
		for ci, c := range in.Meta.Cols {
			st.colIdx[c.Name] = ci
			if c.IsL {
				st.lCols[c.Level] = ci
			}
		}
		states[i] = st
		if err := tg.advance(st); err != nil {
			return err
		}
	}

	bw := newRefXMLWriter(w)
	if tg.Wrapper != "" {
		bw.open(tg.Wrapper)
	}
	var stack []*refInstance
	closeTo := func(depth int) {
		for len(stack) > depth {
			bw.close(stack[len(stack)-1].node.Tag)
			stack = stack[:len(stack)-1]
		}
	}

	for {
		// Pick the stream whose head instance is smallest in document
		// order.
		best := -1
		for i, st := range states {
			if len(st.pending) == 0 {
				continue
			}
			if best < 0 || refCompareKeys(st.pending[0].key, states[best].pending[0].key) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		st := states[best]
		inst := st.pending[0]
		st.pending = st.pending[1:]
		if len(st.pending) == 0 {
			if err := tg.advance(st); err != nil {
				return err
			}
		}

		d := inst.node.Level()
		closeTo(d - 1)
		if len(stack) == d-1 && d > 1 {
			if top := stack[len(stack)-1]; top.node != inst.node.Parent {
				return fmt.Errorf("tagger: instance of <%s> arrived under <%s>, want <%s> (streams out of order?)",
					inst.node.Tag, top.node.Tag, inst.node.Parent.Tag)
			}
		}
		if d > 1 && len(stack) < d-1 {
			return fmt.Errorf("tagger: instance of <%s> at depth %d arrived with only %d open ancestors",
				inst.node.Tag, d, len(stack))
		}
		bw.open(inst.node.Tag)
		for _, c := range inst.node.Contents {
			if c.IsConst {
				bw.text(c.Const.Text())
			} else {
				bw.text(inst.vals[c.Ref].Text())
			}
		}
		stack = append(stack, inst)
	}
	closeTo(0)
	if tg.Wrapper != "" {
		bw.close(tg.Wrapper)
	}
	return bw.flush()
}

// advance reads rows from a stream until at least one new instance appears
// (or the stream ends), expanding each row into its node instances and
// deduplicating against the previously emitted ones.
func (tg *refTagger) advance(st *refStreamState) error {
	if st.done {
		return nil
	}
	for {
		row, ok, err := st.in.Rows.Next()
		if err != nil {
			return fmt.Errorf("tagger: reading stream: %w", err)
		}
		if !ok {
			st.done = true
			return nil
		}
		tg.expandRow(st, row)
		if len(st.pending) > 0 {
			return nil
		}
	}
}

// expandRow turns one row into the instances of all node groups present in
// the row, in document order, skipping instances already emitted.
func (tg *refTagger) expandRow(st *refStreamState, row []value.Value) {
	var instances []*refInstance
	var walk func(g *viewtree.Group)
	walk = func(g *viewtree.Group) {
		for _, m := range g.Members {
			if inst := tg.makeInstance(st, m, row); inst != nil {
				instances = append(instances, inst)
			}
		}
		for _, ge := range g.Children {
			// A child branch is present when its dynamic L column holds
			// the branch ordinal; an outer-join null means no child.
			lvl := ge.Child.Root.Level()
			ci, ok := st.lCols[lvl]
			if !ok {
				continue // no L column: branch can never be attributed
			}
			lv := row[ci]
			if lv.IsNull() || lv.Kind() != value.KindInt || lv.AsInt() != int64(ge.Child.Root.Ordinal()) {
				continue
			}
			walk(ge.Child)
		}
	}
	walk(st.in.Meta.Comp.Root)

	// Document order within the row, then dedupe against history.
	refSortInstances(instances)
	for _, inst := range instances {
		if prev, seen := st.last[inst.node]; seen && refCompareKeys(prev, inst.key) == 0 {
			continue
		}
		st.last[inst.node] = inst.key
		st.pending = append(st.pending, inst)
	}
}

// makeInstance extracts one node's instance from a row.
func (tg *refTagger) makeInstance(st *refStreamState, n *viewtree.Node, row []value.Value) *refInstance {
	inst := &refInstance{
		node: n,
		key:  make([]value.Value, len(tg.positions)),
		vals: make(map[viewtree.VarRef]value.Value, len(n.KeyArgs)+len(n.ContentArgs)),
	}
	for _, a := range n.Args() {
		ci, ok := st.colIdx[refMangledName(a)]
		if !ok {
			continue
		}
		inst.vals[a] = row[ci]
	}
	for i := 0; i < n.Level(); i++ {
		inst.key[tg.lIndex[i+1]] = value.Int(int64(n.SFI[i]))
	}
	for a, v := range inst.vals {
		if pi, ok := tg.posIndex[a]; ok {
			inst.key[pi] = v
		}
	}
	return inst
}

// refMangledName mirrors sqlgen's column naming.
func refMangledName(r viewtree.VarRef) string {
	return "v_" + refLower(r.Var) + "_" + refLower(r.Field)
}

func refLower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func refSortInstances(insts []*refInstance) {
	// Insertion sort: rows expand to at most a handful of instances.
	for i := 1; i < len(insts); i++ {
		for j := i; j > 0 && refCompareKeys(insts[j].key, insts[j-1].key) < 0; j-- {
			insts[j], insts[j-1] = insts[j-1], insts[j]
		}
	}
}

// refXMLWriter emits compact, escaped XML.
type refXMLWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newRefXMLWriter(w io.Writer) *refXMLWriter {
	return &refXMLWriter{w: w, buf: make([]byte, 0, 64<<10)}
}

func (x *refXMLWriter) open(tag string) {
	x.buf = append(x.buf, '<')
	x.buf = append(x.buf, tag...)
	x.buf = append(x.buf, '>')
	x.maybeFlush()
}

func (x *refXMLWriter) close(tag string) {
	x.buf = append(x.buf, '<', '/')
	x.buf = append(x.buf, tag...)
	x.buf = append(x.buf, '>')
	x.maybeFlush()
}

func (x *refXMLWriter) text(s string) {
	if s == "" {
		return
	}
	// xml.EscapeText escapes &, <, >, quotes, and control characters.
	var sink refEscapeSink
	sink.buf = x.buf
	_ = xml.EscapeText(&sink, []byte(s))
	x.buf = sink.buf
	x.maybeFlush()
}

type refEscapeSink struct{ buf []byte }

func (e *refEscapeSink) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

func (x *refXMLWriter) maybeFlush() {
	if len(x.buf) >= 32<<10 {
		x.flushBuf()
	}
}

func (x *refXMLWriter) flushBuf() {
	if x.err != nil || len(x.buf) == 0 {
		x.buf = x.buf[:0]
		return
	}
	_, x.err = x.w.Write(x.buf)
	x.buf = x.buf[:0]
}

func (x *refXMLWriter) flush() error {
	x.flushBuf()
	return x.err
}
