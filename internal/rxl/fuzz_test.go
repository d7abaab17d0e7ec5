package rxl_test

import (
	"errors"
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/tpch"
	"silkroute/internal/viewtree"
)

// FuzzParseRXL feeds arbitrary bytes to the parser as RXL source. A source
// that fails to parse must fail with an *rxl.Error positioned inside it
// (or at -1, for no position); one that parses must build into a view
// tree over the TPC-H schema or fail with an error, never panic.
func FuzzParseRXL(f *testing.F) {
	for _, src := range rxl.GoodSources {
		f.Add([]byte(src))
	}
	for _, src := range rxl.BadSources {
		f.Add([]byte(src))
	}
	s := tpch.Schema()
	f.Fuzz(func(t *testing.T, src []byte) {
		q, err := rxl.Parse(string(src))
		if err != nil {
			var perr *rxl.Error
			if !errors.As(err, &perr) {
				t.Fatalf("Parse(%q): error %T is not an *rxl.Error: %v", src, err, err)
			}
			if perr.Offset < -1 || perr.Offset > len(src) {
				t.Fatalf("Parse(%q): offset %d outside [-1, %d]", src, perr.Offset, len(src))
			}
			return
		}
		if tree, err := viewtree.Build(q, s); err == nil && tree == nil {
			t.Fatalf("Build(%q) returned neither a tree nor an error", src)
		}
	})
}
