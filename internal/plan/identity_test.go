package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"silkroute/internal/rxl"
	"silkroute/internal/sqlgen"
	"silkroute/internal/tpch"
)

// TestStreamsAndEstimatesUnchanged pins every stream the generator can
// produce for the paper's views, and the estimator's answer for each, to
// two sha256 values. It walks Q1, Q2 and the fragment at TPC-H 0.001 (seed
// 42) over every edge mask, reduced and not, in both generation styles.
// Per stream the first hash takes the SQL text and the sort-key positions,
// the second the float64 bits of the estimate's Cost, Rows and Width.
//
// A change that only moves how the planner allocates must leave both
// hashes as they are. A change that means to alter the SQL or the cost
// model updates them, and says so.
func TestStreamsAndEstimatesUnchanged(t *testing.T) {
	const (
		wantSQL = "1c6508270d9ff1457f296eeae2387a52c00b1c592e55e81d76fd82bb680b9830"
		wantEst = "1c8ee026566e68ee7acb6382d223a8cb96f439293d9c9a07ed1ea6d64074030e"
	)
	db := tpch.Generate(0.001, 42)
	sqlHash, estHash := sha256.New(), sha256.New()
	var buf []byte
	streams := 0
	for _, src := range []string{rxl.Query1Source, rxl.Query2Source, rxl.FragmentSource} {
		tree := buildTree(t, db, src)
		for bits := uint64(0); bits < 1<<uint(len(tree.Edges)); bits++ {
			for _, reduce := range []bool{false, true} {
				for _, style := range []sqlgen.Style{sqlgen.OuterJoin, sqlgen.OuterUnion} {
					p := FromBits(tree, bits, reduce)
					p.Style = style
					ss, err := p.Streams()
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range ss {
						buf = append(buf[:0], s.SQL()...)
						buf = append(buf, 0)
						for _, k := range s.SortKey() {
							buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
						}
						buf = append(buf, 0xff)
						sqlHash.Write(buf)
						est, err := db.EstimateQuery(ctx, s.Query)
						if err != nil {
							t.Fatal(err)
						}
						buf = buf[:0]
						for _, f := range []float64{est.Cost, est.Rows, est.Width} {
							buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
						}
						estHash.Write(buf)
						streams++
					}
				}
			}
		}
	}
	gotSQL := hex.EncodeToString(sqlHash.Sum(nil))
	gotEst := hex.EncodeToString(estHash.Sum(nil))
	t.Logf("%d streams: SQL and keys %s, estimates %s", streams, gotSQL, gotEst)
	if gotSQL != wantSQL {
		t.Errorf("stream SQL and sort keys hash to %s, want %s", gotSQL, wantSQL)
	}
	if gotEst != wantEst {
		t.Errorf("estimates hash to %s, want %s", gotEst, wantEst)
	}
}
