package tagger

import (
	"io"
	"slices"

	"silkroute/internal/value"
)

// WriteXMLUnordered implements the *unordered* strategy of
// Shanmugasundaram et al. [9] that the paper's §6 contrasts with
// SilkRoute's sorted approach: the tuple streams arrive unsorted (the
// server skips the structural ORDER BY entirely), and the tagger assembles
// the document in a main-memory structure before emitting it.
//
// The trade-off is exactly the one the paper describes: the server saves
// every sort, but the client's memory grows with the document, so this
// path is only usable when the XML view fits in memory. SilkRoute's
// sorted, constant-space merge (WriteXML) is the one that scales.
func (tg *Tagger) WriteXMLUnordered(w io.Writer, inputs []Input) error {
	type instance struct {
		p   *nodeProg
		row []value.Value
	}
	seen := make(map[string]bool)
	var (
		all   []instance
		arena []value.Value // copies of the buffered rows
		sig   []byte
	)
	for _, in := range inputs {
		s := tg.compile(in)
		for {
			row, ok, err := in.Rows.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			// The row outlives the source's next call, so it is copied.
			arena = append(arena, row...)
			row = arena[len(arena)-len(row):]
			s.members(row)
			for _, p := range s.pending {
				// Global deduplication on the node plus its structural key.
				sig = append(sig[:0], p.node.SkolemName...)
				for _, k := range p.key {
					sig = append(sig, 0)
					if v := k.get(row); v.IsNull() {
						sig = append(sig, 'N')
					} else {
						sig = v.AppendHashKey(sig)
					}
				}
				if seen[string(sig)] {
					continue
				}
				seen[string(sig)] = true
				all = append(all, instance{p, row})
			}
		}
	}

	// Structure late: one global sort into document order, then the same
	// emission as the streaming path.
	slices.SortStableFunc(all, func(a, b instance) int {
		return compareKeys(a.p, a.row, b.p, b.row)
	})
	x := newXMLWriter(w, len(tg.lPos))
	x.begin(tg.Wrapper)
	for _, in := range all {
		x.closeTo(in.p.node.Level() - 1)
		if x.element(in.p, in.row); x.err != nil {
			return x.err
		}
	}
	x.end(tg.Wrapper)
	return x.flush()
}
