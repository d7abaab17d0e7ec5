// Package tagger implements SilkRoute's integration-and-tagging stage
// (§3.3 of the paper): it merges the sorted tuple streams of a partitioned
// plan into document order, re-nests the tuples, and emits the XML
// document.
//
// The algorithm is single-pass and constant-space. Once per document,
// WriteXML compiles every (stream, view-tree node) pair into a program
// that reads the node's structural key and text in place from the
// stream's rows, and allocates a 64 KiB output buffer, one reusable
// pending list and one key buffer per stream (grown only when a row's keys
// outgrow it), a heap of the streams and one open-element stack bounded by
// the tree depth. Nothing is allocated per row, so both the live heap and
// the allocation total depend only on the view tree and the number of
// streams, never on the database size. That property is what lets
// SilkRoute materialize XML views larger than main memory.
//
// Document order is the order of the global structural keys under
// value.Compare, the order the streams' SQL ORDER BY sorted them in. Each
// queued instance's key is encoded once with value.AppendKey, which
// encodes that order for every value, so instances and streams are
// ordered by bytes.Compare alone.
package tagger

import (
	"bytes"
	"fmt"
	"io"
	"unicode/utf8"

	"silkroute/internal/obs"
	"silkroute/internal/sqlgen"
	"silkroute/internal/value"
	"silkroute/internal/viewtree"
)

// Source yields the sorted rows of one tuple stream.
type Source interface {
	// Next returns the next row; ok is false at end of stream. The row is
	// read only until the next call, so a source may reuse its slice.
	Next() ([]value.Value, bool, error)
}

// Input pairs one generated stream's metadata with its row source.
type Input struct {
	Meta *sqlgen.Stream
	Rows Source
}

// SliceSource adapts an in-memory row slice to Source, for tests and for
// plans executed without the wire protocol.
type SliceSource struct {
	RowsData [][]value.Value
	pos      int
}

// Next implements Source.
func (s *SliceSource) Next() ([]value.Value, bool, error) {
	if s.pos >= len(s.RowsData) {
		return nil, false, nil
	}
	r := s.RowsData[s.pos]
	s.pos++
	return r, true, nil
}

// Tagger merges partitioned tuple streams and writes the XML document.
type Tagger struct {
	// Wrapper, when non-empty, wraps the whole output in one root element
	// so the result is a well-formed document even when the view's root
	// template produces many instances.
	Wrapper string

	// The global structural key L1,V(1,*),L2,V(2,*),… has width positions.
	width  int
	lPos   []int                   // level (1-based) → key position of its L column
	varPos map[viewtree.VarRef]int // variable → key position
}

// New builds a tagger for a view tree.
func New(t *viewtree.Tree) *Tagger {
	tg := &Tagger{Wrapper: "document", varPos: make(map[viewtree.VarRef]int)}
	depth := t.MaxDepth()
	tg.lPos = make([]int, depth+1)
	for lvl := 1; lvl <= depth; lvl++ {
		tg.lPos[lvl] = tg.width
		tg.width++
		for _, v := range t.VarsAtLevel(lvl) {
			tg.varPos[v.Ref] = tg.width
			tg.width++
		}
	}
	return tg
}

// slot is one compiled value: row[col] when col >= 0, else the constant lit.
type slot struct {
	col int
	lit value.Value
}

func (s slot) get(row []value.Value) value.Value {
	if s.col >= 0 {
		return row[s.col]
	}
	return s.lit
}

// keySeg is one part of a node's compiled key encoding: lit, the encoded
// constant positions before row column col, then that column. last holds
// the column's value in the instance last queued.
type keySeg struct {
	lit  []byte
	col  int
	last value.Value
}

// nodeProg is one view-tree node compiled against one stream's columns.
// An instance of the node is the program plus the row it reads.
type nodeProg struct {
	node *viewtree.Node
	key  []slot // the instance's global structural key, compiled into segs
	text []slot // the element's text children, in document order

	// The key's byte encoding is each segment's constant bytes and column
	// in turn, then tail: the segments' columns are the key's row columns,
	// in key order.
	segs []keySeg
	tail []byte
	seen bool // the segments' last values hold a queued instance
}

// fresh reports whether the row's instance of p differs from the one last
// queued, and if so remembers it. Rows arrive sorted, so consecutive rows
// usually differ in their deepest column, which is compared first.
func (p *nodeProg) fresh(row []value.Value) bool {
	if p.seen {
		i := len(p.segs) - 1
		for i >= 0 && value.Compare(p.segs[i].last, row[p.segs[i].col]) == 0 {
			i--
		}
		if i < 0 {
			return false
		}
	}
	for i := range p.segs {
		p.segs[i].last = row[p.segs[i].col]
	}
	p.seen = true
	return true
}

// appendKey appends the byte encoding of the row's instance of p to dst.
func (p *nodeProg) appendKey(dst []byte, row []value.Value) []byte {
	for i := range p.segs {
		dst = append(dst, p.segs[i].lit...)
		dst = value.AppendKey(dst, row[p.segs[i].col])
	}
	return append(dst, p.tail...)
}

// instance is one queued instance of a stream's current row: its program
// and its key, encoded in the stream's key buffer.
type instance struct {
	prog *nodeProg
	key  []byte
}

// step is one entry of a stream's flattened group walk: a member node to
// instantiate, or (prog nil) a branch test that jumps to skip, past the
// child group's steps, unless the row's L column col holds ordinal.
type step struct {
	prog    *nodeProg
	col     int // -1: the stream has no L column for the branch
	ordinal int64
	skip    int
}

// stream is the per-stream cursor: the compiled walk, the current row and
// the instances of that row not yet emitted.
type stream struct {
	index   int // the input's position, which breaks ties between streams
	rows    Source
	steps   []step
	row     []value.Value
	pending []instance // in document order; pending[head:] are unemitted
	head    int
	keys    []byte // pending's encoded keys, reused across rows
	done    bool
}

// compile builds the stream's program: every member node of its component
// resolved to row columns through the stream's column metadata. The
// programs, their slots, their key segments and the segments' constant
// bytes each take one slab per stream.
func (tg *Tagger) compile(s *stream, in Input) {
	varCol := make(map[viewtree.VarRef]int, len(in.Meta.Cols))
	lCol := make([]int, len(tg.lPos))
	for i := range lCol {
		lCol[i] = -1
	}
	for ci, c := range in.Meta.Cols {
		if c.IsL {
			lCol[c.Level] = ci
		} else {
			varCol[c.Ref] = ci
		}
	}
	comp := in.Meta.Comp
	members, texts := 0, 0
	for _, g := range comp.Groups {
		for _, m := range g.Members {
			members++
			texts += len(m.Contents)
		}
	}
	progs := make([]nodeProg, members)
	s.rows = in.Rows
	s.steps, _ = walk(comp.Root, make([]step, 0, members+len(comp.Groups)-1), progs, lCol)

	slots := make([]slot, members*tg.width+texts)
	cols := 0
	for i := range progs {
		slots = tg.program(&progs[i], varCol, slots)
		for _, k := range progs[i].key {
			if k.col >= 0 {
				cols++
			}
		}
	}
	segs := make([]keySeg, cols)
	// A constant key position is an L column's int, 4 bytes when below
	// 256 as Skolem-function indexes are, or NULL, 1 byte; a larger int
	// only makes the slab grow.
	lits := make([]byte, 0, 4*tg.width*members)
	for i := range progs {
		segs, lits = progs[i].segments(segs, lits)
	}
	// A row instantiates each member at most once.
	s.pending = make([]instance, 0, members)
	s.keys = make([]byte, 0, len(lits)+64*cols)
}

// walk appends g's steps: its members, each taking the next program from
// progs, then each child group behind its branch test. It returns the
// steps and the programs not yet taken.
func walk(g *viewtree.Group, steps []step, progs []nodeProg, lCol []int) ([]step, []nodeProg) {
	for _, m := range g.Members {
		progs[0].node = m
		steps = append(steps, step{prog: &progs[0]})
		progs = progs[1:]
	}
	for _, ge := range g.Children {
		// A child branch is present when its dynamic L column holds the
		// branch ordinal; an outer-join null means no child.
		at := len(steps)
		steps = append(steps, step{col: lCol[ge.Child.Root.Level()], ordinal: int64(ge.Child.Root.Ordinal())})
		steps, progs = walk(ge.Child, steps, progs, lCol)
		steps[at].skip = len(steps)
	}
	return steps, progs
}

// program compiles p's node with its key and text taken from the front of
// slots, and returns the slots left: the L positions of its key hold its
// Skolem-function index, its variables' positions their row columns, and
// every other position NULL.
func (tg *Tagger) program(p *nodeProg, varCol map[viewtree.VarRef]int, slots []slot) []slot {
	n := p.node
	p.key, slots = slots[:tg.width:tg.width], slots[tg.width:]
	for i := range p.key {
		p.key[i].col = -1
	}
	for lvl := 1; lvl <= n.Level(); lvl++ {
		p.key[tg.lPos[lvl]].lit = value.Int(int64(n.SFI[lvl-1]))
	}
	for _, args := range [][]viewtree.VarRef{n.KeyArgs, n.ContentArgs} {
		for _, a := range args {
			if ci, ok := varCol[a]; ok {
				p.key[tg.varPos[a]].col = ci
			}
		}
	}
	p.text, slots = slots[:len(n.Contents):len(n.Contents)], slots[len(n.Contents):]
	for i, c := range n.Contents {
		p.text[i] = slot{col: -1, lit: c.Const} // a variable the stream lacks reads NULL
		if ci, ok := varCol[c.Ref]; ok && !c.IsConst {
			p.text[i].col = ci
		}
	}
	return slots
}

// segments splits p's key into segments taken from the front of segs, with
// their constant bytes appended to lits, and returns what is left of segs
// and the extended lits.
func (p *nodeProg) segments(segs []keySeg, lits []byte) ([]keySeg, []byte) {
	n, from := 0, len(lits)
	for _, k := range p.key {
		if k.col < 0 {
			lits = value.AppendKey(lits, k.lit)
			continue
		}
		segs[n] = keySeg{lit: lits[from:len(lits):len(lits)], col: k.col}
		n++
		from = len(lits)
	}
	p.segs, p.tail = segs[:n:n], lits[from:len(lits):len(lits)]
	return segs[n:], lits
}

// members sets s.pending to the member nodes the row instantiates, in walk
// order.
func (s *stream) members(row []value.Value) {
	s.pending = s.pending[:0]
	for i := 0; i < len(s.steps); {
		st := &s.steps[i]
		i++
		if st.prog != nil {
			s.pending = append(s.pending, instance{prog: st.prog})
			continue
		}
		if st.col < 0 {
			i = st.skip // no L column: the branch can never be attributed
			continue
		}
		if lv := row[st.col]; lv.Kind() != value.KindInt || lv.AsInt() != st.ordinal {
			i = st.skip
		}
	}
}

// advance reads rows of s until one carries an instance not queued before
// (or the stream ends), and queues that row's new instances in document
// order, each with its key encoded once.
func (s *stream) advance() error {
	s.pending, s.head = s.pending[:0], 0
	for !s.done {
		row, ok, err := s.rows.Next()
		if err != nil {
			return fmt.Errorf("tagger: reading stream: %w", err)
		}
		if !ok {
			s.done, s.row = true, nil
			return nil
		}
		s.row = row
		s.members(row)
		s.keys = s.keys[:0]
		// Drop the instances already queued, insertion-sorting the rest
		// in place: a row expands to at most a handful of instances.
		n := 0
		for _, in := range s.pending {
			if !in.prog.fresh(row) {
				continue
			}
			from := len(s.keys)
			s.keys = in.prog.appendKey(s.keys, row)
			in.key = s.keys[from:]
			s.pending[n] = in
			for j := n; j > 0 && bytes.Compare(s.pending[j].key, s.pending[j-1].key) < 0; j-- {
				s.pending[j], s.pending[j-1] = s.pending[j-1], s.pending[j]
			}
			n++
		}
		s.pending = s.pending[:n]
		if n > 0 {
			return nil
		}
	}
	return nil
}

// less orders two streams by their head instances, a tie to the earlier
// stream: the heap's top is the stream a scan for the first smallest head
// would pick.
func less(a, b *stream) bool {
	if c := bytes.Compare(a.pending[a.head].key, b.pending[b.head].key); c != 0 {
		return c < 0
	}
	return a.index < b.index
}

// down moves the stream at heap position i down until no child orders
// before it.
func down(h []*stream, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// boundaryWriter is a writer that wants to know where top-level elements
// begin, such as the fragment cache's recorder.
type boundaryWriter interface{ Boundary() }

// WriteXML merges the streams and writes the document to w. It stops at the
// first failed write to w and returns that error. When w has a Boundary
// method, it is called just before each top-level element (depth 1) opens,
// after every earlier byte has reached w, so w can split the document at
// exact top-level boundaries.
//
// The streams with an unemitted instance form a min-heap ordered by
// (head key, stream index).
func (tg *Tagger) WriteXML(w io.Writer, inputs []Input) error {
	bw, _ := w.(boundaryWriter)
	streams := make([]stream, len(inputs))
	heap := make([]*stream, 0, len(inputs))
	for i, in := range inputs {
		s := &streams[i]
		s.index = i
		tg.compile(s, in)
		if err := s.advance(); err != nil {
			return err
		}
		if len(s.pending) > 0 {
			heap = append(heap, s)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(heap, i)
	}

	x := newXMLWriter(w, len(tg.lPos))
	x.begin(tg.Wrapper)
	for len(heap) > 0 {
		// The heap's top holds the instance smallest in document order.
		best := heap[0]
		p := best.pending[best.head].prog
		best.head++

		n, d := p.node, p.node.Level()
		x.closeTo(d - 1)
		if d > 1 && len(x.stack) < d-1 {
			return fmt.Errorf("tagger: instance of <%s> at depth %d arrived with only %d open ancestors",
				n.Tag, d, len(x.stack))
		}
		if top := len(x.stack) - 1; top >= 0 && x.stack[top] != n.Parent {
			return fmt.Errorf("tagger: instance of <%s> arrived under <%s>, want <%s> (streams out of order?)",
				n.Tag, x.stack[top].Tag, n.Parent.Tag)
		}
		if d == 1 && bw != nil {
			if x.flushBuf(); x.err != nil {
				return x.err
			}
			bw.Boundary()
		}
		// The element reads best.row, so it is written before the stream
		// advances: a source may overwrite the row on its next call.
		x.element(p, best.row)
		if x.err != nil {
			return x.err
		}
		if best.head == len(best.pending) {
			if err := best.advance(); err != nil {
				return err
			}
			if len(best.pending) == 0 { // the stream ended
				last := len(heap) - 1
				heap[0] = heap[last]
				heap = heap[:last]
			}
		}
		down(heap, 0)
	}
	x.end(tg.Wrapper)
	if err := x.flush(); err != nil {
		return err
	}
	// One record per document: the writer counted locally, so the per-element
	// hot path stayed free of shared-counter traffic.
	if om := obs.M(); om != nil {
		om.Tagger.Documents.Inc()
		om.Tagger.Elements.Add(x.elems)
		om.Tagger.Bytes.Add(x.bytes)
	}
	return nil
}

// xmlWriter emits compact, escaped XML in document order.
type xmlWriter struct {
	w     io.Writer
	buf   []byte
	stack []*viewtree.Node // open elements, outermost first
	err   error
	elems int64 // elements opened
	bytes int64 // bytes written to w
}

func newXMLWriter(w io.Writer, depth int) *xmlWriter {
	return &xmlWriter{w: w, buf: make([]byte, 0, 64<<10), stack: make([]*viewtree.Node, 0, depth)}
}

// begin opens the wrapper element, if any.
func (x *xmlWriter) begin(wrapper string) {
	if wrapper != "" {
		x.open(wrapper)
	}
}

// end closes every open element and then the wrapper, if any.
func (x *xmlWriter) end(wrapper string) {
	x.closeTo(0)
	if wrapper != "" {
		x.close(wrapper)
	}
}

// element writes one instance — the node's start tag and its text read
// from row — and leaves it open.
func (x *xmlWriter) element(p *nodeProg, row []value.Value) {
	x.open(p.node.Tag)
	for _, t := range p.text {
		v := t.get(row)
		if v.Kind() == value.KindString {
			x.buf = appendEscaped(x.buf, v.AsString())
		} else {
			// Numbers render as digits, signs, '.', 'e', "NaN" or "Inf"
			// and NULL as nothing: there is nothing to escape.
			x.buf = v.AppendText(x.buf)
		}
		x.maybeFlush()
	}
	x.stack = append(x.stack, p.node)
}

// closeTo closes open elements until depth remain.
func (x *xmlWriter) closeTo(depth int) {
	for len(x.stack) > depth {
		x.close(x.stack[len(x.stack)-1].Tag)
		x.stack = x.stack[:len(x.stack)-1]
	}
}

func (x *xmlWriter) open(tag string) {
	x.elems++
	x.buf = append(x.buf, '<')
	x.buf = append(x.buf, tag...)
	x.buf = append(x.buf, '>')
	x.maybeFlush()
}

func (x *xmlWriter) close(tag string) {
	x.buf = append(x.buf, '<', '/')
	x.buf = append(x.buf, tag...)
	x.buf = append(x.buf, '>')
	x.maybeFlush()
}

// appendEscaped appends s to dst escaped exactly as xml.EscapeText does:
// the five markup characters and \t \n \r become character references, and
// invalid UTF-8 or a character outside XML's range becomes U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>' {
			i++
			continue
		}
		r, width := rune(c), 1
		if c >= utf8.RuneSelf {
			r, width = utf8.DecodeRuneInString(s[i:])
		}
		var esc string
		switch r {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			// A control character or invalid UTF-8 (both of width 1)
			// becomes U+FFFD. Of the valid multi-byte characters XML
			// excludes only U+FFFE and U+FFFF: UTF-8 never decodes to a
			// surrogate.
			if width > 1 && r != 0xFFFE && r != 0xFFFF {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, esc...)
		i += width
		last = i
	}
	return append(dst, s[last:]...)
}

func (x *xmlWriter) maybeFlush() {
	if len(x.buf) >= 32<<10 {
		x.flushBuf()
	}
}

func (x *xmlWriter) flushBuf() {
	if x.err != nil || len(x.buf) == 0 {
		x.buf = x.buf[:0]
		return
	}
	_, x.err = x.w.Write(x.buf)
	x.bytes += int64(len(x.buf))
	x.buf = x.buf[:0]
}

func (x *xmlWriter) flush() error {
	x.flushBuf()
	return x.err
}
