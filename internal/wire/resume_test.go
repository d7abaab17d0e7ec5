package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"silkroute/internal/engine"
	"silkroute/internal/schema"
	"silkroute/internal/value"
)

var errInjected = errors.New("injected fault")

// bigDB builds Big(k int, v string) with keys 1..n, dup identical copies of
// each row. Full-key ties being byte-identical rows is the invariant sorted
// SilkRoute streams guarantee, and what makes count-based boundary skipping
// exact.
func bigDB(t *testing.T, n, dup int) *engine.Database {
	t.Helper()
	s := schema.New()
	s.MustAddRelation("Big", []string{"k"},
		schema.Column{Name: "k", Type: value.KindInt},
		schema.Column{Name: "v", Type: value.KindString})
	db := engine.NewDatabase(s)
	tbl := db.MustTable("Big")
	for i := 1; i <= n; i++ {
		for d := 0; d < dup; d++ {
			tbl.MustInsert(value.Int(int64(i)), value.String(fmt.Sprintf("row-%04d", i)))
		}
	}
	return db
}

const bigSQL = "select t.k, t.v from Big t order by t.k"

// bigSpec rewrites bigSQL to its suffix at/after the boundary key, the way
// plan.ExecuteWire does through sqlgen, but hand-rolled so the wire tests
// stay independent of the SQL generator.
func bigSpec() *ResumeSpec {
	return &ResumeSpec{
		KeyCols: []int{0},
		Rewrite: func(key []value.Value) (string, error) {
			if key == nil {
				return bigSQL, nil
			}
			return fmt.Sprintf("select t.k, t.v from Big t where t.k >= %d order by t.k", key[0].AsInt()), nil
		},
	}
}

// faultClient wires a client straight to a server with the given RowFault.
func faultClient(t *testing.T, db *engine.Database, fault func(string) func(int64) error, opts ...ClientOption) *Client {
	t.Helper()
	srv := &Server{DB: db, RowFault: fault}
	client := NewClient(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		go srv.ServeConn(c2)
		return c1, nil
	}, opts...)
	t.Cleanup(func() { client.Close() })
	return client
}

// killEachTextOnceAt kills each distinct SQL text's stream at most once,
// after `at` rows have been sent.
func killEachTextOnceAt(at int64) func(string) func(int64) error {
	var mu sync.Mutex
	killed := make(map[string]bool)
	return func(sql string) func(int64) error {
		mu.Lock()
		defer mu.Unlock()
		if killed[sql] {
			return nil
		}
		killed[sql] = true
		return func(i int64) error {
			if i >= at {
				return errInjected
			}
			return nil
		}
	}
}

func checkBigRows(t *testing.T, got [][]value.Value, n, dup int) {
	t.Helper()
	if len(got) != n*dup {
		t.Fatalf("got %d rows, want %d", len(got), n*dup)
	}
	for i, row := range got {
		wantKey := int64(i/dup + 1)
		if row[0].AsInt() != wantKey {
			t.Fatalf("row %d: key %d, want %d (duplicate or gap at the resume boundary)", i, row[0].AsInt(), wantKey)
		}
		if want := fmt.Sprintf("row-%04d", wantKey); row[1].AsString() != want {
			t.Fatalf("row %d: value %q, want %q", i, row[1].AsString(), want)
		}
	}
}

func TestResumeMidStream(t *testing.T) {
	db := bigDB(t, 300, 1)
	// Kill only the original query, once: exactly one resume finishes the job.
	fault := killEachTextOnceAt(100)
	onlyOriginal := func(sql string) func(int64) error {
		if sql != bigSQL {
			return nil
		}
		return fault(sql)
	}
	client := faultClient(t, db, onlyOriginal,
		WithResume(Resume{MaxResumes: 3}))

	rows, err := client.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 300, 1)
	if rows.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", rows.Resumes)
	}
	if rows.RowCount != 300 {
		t.Errorf("RowCount = %d, want 300", rows.RowCount)
	}
}

func TestResumeChained(t *testing.T) {
	// Every distinct query text — original and each continuation — is killed
	// once at row 100, so the 300-row stream needs three chained resumes,
	// each advancing the frontier past the previous cut.
	db := bigDB(t, 300, 1)
	client := faultClient(t, db, killEachTextOnceAt(100),
		WithResume(Resume{MaxResumes: 5}))

	rows, err := client.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 300, 1)
	if rows.Resumes != 3 {
		t.Errorf("Resumes = %d, want 3", rows.Resumes)
	}
}

func TestResumeSkipsBoundaryTies(t *testing.T) {
	// Three identical rows per key; the cut at row 100 lands mid tie-group,
	// so the continuation must skip exactly the delivered share of the group.
	db := bigDB(t, 60, 3)
	client := faultClient(t, db, killEachTextOnceAt(100),
		WithResume(Resume{MaxResumes: 3}))

	rows, err := client.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 60, 3)
	if rows.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", rows.Resumes)
	}
}

func TestResumeConstantKeyFastForwards(t *testing.T) {
	// An empty key column set models a stream with a constant sort key:
	// resume re-runs the query and fast-forwards past every delivered row.
	db := bigDB(t, 40, 1)
	client := faultClient(t, db, killEachTextOnceAt(15),
		WithResume(Resume{MaxResumes: 3}))

	spec := &ResumeSpec{Rewrite: func(key []value.Value) (string, error) {
		return bigSQL, nil
	}}
	rows, err := client.QueryResumable(ctx, bigSQL, spec)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, rows)
	checkBigRows(t, got, 40, 1)
	if rows.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1", rows.Resumes)
	}
}

func TestStreamLostWithoutResume(t *testing.T) {
	// Same fault, but no resume budget: the stream must fail with the typed
	// error rather than silently truncate, and a spec alone must not arm.
	db := bigDB(t, 300, 1)
	client := faultClient(t, db, killEachTextOnceAt(100))

	rows, err := client.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, err = drainToError(rows)
	if !errors.Is(err, ErrStreamLost) {
		t.Fatalf("err = %v, want ErrStreamLost", err)
	}
	if errors.Is(err, ErrResumeExhausted) {
		t.Fatalf("err = %v: unarmed stream must not report resume exhaustion", err)
	}
}

func TestStreamLostNilSpec(t *testing.T) {
	// Resume enabled but the stream opened through plain Query: the client
	// cannot rewrite arbitrary SQL, so the loss surfaces as ErrStreamLost.
	db := bigDB(t, 300, 1)
	client := faultClient(t, db, killEachTextOnceAt(100),
		WithResume(Resume{MaxResumes: 3}))

	rows, err := client.QueryResumable(ctx, bigSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := drainToError(rows)
	if !errors.Is(err, ErrStreamLost) {
		t.Fatalf("err = %v, want ErrStreamLost", err)
	}
	if n != 100 {
		t.Errorf("delivered %d rows before the loss, want 100", n)
	}
}

func TestResumeBudgetExhausted(t *testing.T) {
	// Every stream — original and continuations — dies after 10 rows, so the
	// budget runs out even though each frontier reopen makes forward
	// progress; the last reopen, from the top, dies inside its skip.
	db := bigDB(t, 300, 1)
	fault := func(string) func(int64) error {
		return func(i int64) error {
			if i >= 10 {
				return errInjected
			}
			return nil
		}
	}
	client := faultClient(t, db, fault,
		WithResume(Resume{MaxResumes: 2}))

	rows, err := client.QueryResumable(ctx, bigSQL, bigSpec())
	if err != nil {
		t.Fatal(err)
	}
	n, err := drainToError(rows)
	if !errors.Is(err, ErrResumeExhausted) {
		t.Fatalf("err = %v, want ErrResumeExhausted", err)
	}
	if !errors.Is(err, ErrStreamLost) {
		t.Fatalf("err = %v: ErrResumeExhausted must also satisfy ErrStreamLost", err)
	}
	if rows.Resumes != 3 {
		t.Errorf("Resumes = %d, want 3 (two at the frontier, one from the top)", rows.Resumes)
	}
	// 10 rows from the original, then 9 new rows per frontier reopen (each
	// continuation re-sends one boundary row before dying at its row 10).
	if n != 28 {
		t.Errorf("delivered %d rows before exhaustion, want 28", n)
	}
}

func TestResumeDetectsSourceChange(t *testing.T) {
	// A continuation that starts strictly after the boundary key is missing
	// the boundary rows: resume must fail permanently (source changed), not
	// splice a corrupted stream.
	db := bigDB(t, 300, 1)
	spec := &ResumeSpec{
		KeyCols: []int{0},
		Rewrite: func(key []value.Value) (string, error) {
			if key == nil {
				return bigSQL, nil
			}
			return fmt.Sprintf("select t.k, t.v from Big t where t.k > %d order by t.k", key[0].AsInt()), nil
		},
	}
	client := faultClient(t, db, killEachTextOnceAt(100),
		WithResume(Resume{MaxResumes: 3}))

	rows, err := client.QueryResumable(ctx, bigSQL, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = drainToError(rows)
	if err == nil || !strings.Contains(err.Error(), "source changed") {
		t.Fatalf("err = %v, want a source-changed resume failure", err)
	}
}

func TestServerErrorNotRetried(t *testing.T) {
	// A definitive server answer on reopen ends the stream: the server
	// spoke, so the resume budget is not spent on asking again.
	db := bigDB(t, 300, 1)
	spec := &ResumeSpec{
		KeyCols: []int{0},
		Rewrite: func(key []value.Value) (string, error) {
			if key == nil {
				return bigSQL, nil
			}
			return "select g.x from Ghost g", nil
		},
	}
	client := faultClient(t, db, killEachTextOnceAt(100),
		WithResume(Resume{MaxResumes: 3}))

	rows, err := client.QueryResumable(ctx, bigSQL, spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := drainToError(rows)
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeSQL {
		t.Fatalf("err = %v, want *Error with CodeSQL", err)
	}
	if rows.Resumes != 1 {
		t.Errorf("Resumes = %d, want 1 (no further reopen after the server's answer)", rows.Resumes)
	}
	if n != 100 {
		t.Errorf("delivered %d rows before the answer, want 100", n)
	}
}

// drainToError reads rows until a terminal error (including io.EOF),
// returning the count of rows delivered and that error.
func drainToError(rows *Rows) (int, error) {
	n := 0
	for {
		_, err := rows.Next()
		if err != nil {
			return n, err
		}
		n++
	}
}

// TestResumeLadderContract pins the one stream-healing ladder across
// endpoint counts and fault shapes. Every row checks the same rules: a
// stream makes at most n+1 reopens; with another healthy endpoint its first
// reopen leaves the one it died on, yet when every other endpoint is down
// it heals on its own; a last reopen (the (n+1)th) issues
// Rewrite(nil) and skips exactly RowCount rows; budget 0 never reopens and
// fails with ErrStreamLost; a changed source fails permanently.
func TestResumeLadderContract(t *testing.T) {
	const total = 300
	dieAt := func(at int64) func(int64) error {
		return func(i int64) error {
			if i >= at {
				return errInjected
			}
			return nil
		}
	}
	// Each scenario builds its faults fresh, so per-text kill state never
	// leaks between rows. fault(ep) is endpoint ep's RowFault.
	type scenario struct {
		name   string
		budget int
		faults func() func(ep int) func(string) func(int64) error
		spec   func() *ResumeSpec
		// others is how the endpoints other than 0 fail: "" (they serve),
		// refuse (every dial fails) or open (their breakers are open).
		others string
	}
	const (
		refuse = "refuse"
		open   = "open"
	)
	eachTextOnce := scenario{name: "each text dies once", budget: 3,
		faults: func() func(int) func(string) func(int64) error {
			shared := killEachTextOnceAt(100)
			return func(int) func(string) func(int64) error { return shared }
		}, spec: bigSpec}
	endpoint0Dead := scenario{name: "endpoint 0 dies for good", budget: 2,
		faults: func() func(int) func(string) func(int64) error {
			return func(ep int) func(string) func(int64) error {
				if ep != 0 {
					return nil
				}
				return func(string) func(int64) error { return dieAt(10) }
			}
		}, spec: bigSpec}
	continuationsDie := scenario{name: "every continuation dies after its boundary row", budget: 2,
		faults: func() func(int) func(string) func(int64) error {
			original := killEachTextOnceAt(100)
			fault := func(sql string) func(int64) error {
				if sql == bigSQL {
					return original(sql)
				}
				return dieAt(1)
			}
			return func(int) func(string) func(int64) error { return fault }
		}, spec: bigSpec}
	sourceChanged := scenario{name: "source changed", budget: 3,
		faults: eachTextOnce.faults,
		spec: func() *ResumeSpec {
			// Strictly after the boundary key: the boundary row is missing.
			return &ResumeSpec{KeyCols: []int{0}, Rewrite: func(key []value.Value) (string, error) {
				if key == nil {
					return bigSQL, nil
				}
				return fmt.Sprintf("select t.k, t.v from Big t where t.k > %d order by t.k", key[0].AsInt()), nil
			}}
		}}
	// Endpoint 0 cuts the original stream once and is otherwise sound.
	cutOnce := func() func(int) func(string) func(int64) error {
		once := killEachTextOnceAt(100)
		return func(ep int) func(string) func(int64) error {
			if ep != 0 {
				return nil
			}
			return func(sql string) func(int64) error {
				if sql != bigSQL {
					return nil
				}
				return once(sql)
			}
		}
	}
	othersRefuse := scenario{name: "others refuse dials, endpoint 0 cuts once", budget: 2,
		faults: cutOnce, spec: bigSpec, others: refuse}
	othersOpen := scenario{name: "others open-circuit, endpoint 0 cuts once", budget: 2,
		faults: cutOnce, spec: bigSpec, others: open}
	budgetZero := scenario{name: "budget 0", budget: 0, faults: eachTextOnce.faults, spec: bigSpec}

	const (
		healed    = "healed"
		exhausted = "exhausted"
		lost      = "lost"
		changed   = "source changed"
	)
	tests := []struct {
		scenario
		endpoints int
		reopens   int
		failovers int
		replica   int // final replica
		outcome   string
	}{
		{eachTextOnce, 1, 3, 0, 0, healed},
		{eachTextOnce, 2, 3, 3, 1, healed},
		{eachTextOnce, 3, 3, 3, 1, healed},
		{endpoint0Dead, 1, 3, 0, 0, exhausted},
		{endpoint0Dead, 2, 1, 1, 1, healed},
		{endpoint0Dead, 3, 1, 1, 1, healed},
		{continuationsDie, 1, 3, 0, 0, healed},
		{continuationsDie, 2, 3, 3, 1, healed},
		{continuationsDie, 3, 3, 3, 1, healed},
		{sourceChanged, 1, 1, 0, 0, changed},
		{sourceChanged, 2, 1, 0, 0, changed},
		{sourceChanged, 3, 1, 0, 0, changed},
		// Every other endpoint is tried once, then the stream heals on its
		// own; with 3 endpoints that is the last reopen, from the top.
		{othersRefuse, 2, 2, 0, 0, healed},
		{othersRefuse, 3, 3, 0, 0, healed},
		{othersOpen, 2, 1, 0, 0, healed},
		{othersOpen, 3, 1, 0, 0, healed},
		{budgetZero, 1, 0, 0, 0, lost},
		{budgetZero, 2, 0, 0, 0, lost},
		{budgetZero, 3, 0, 0, 0, lost},
	}
	for _, tc := range tests {
		t.Run(fmt.Sprintf("%s/%d endpoints", tc.name, tc.endpoints), func(t *testing.T) {
			db := bigDB(t, total, 1)
			// served logs the endpoint of every stream open, in order: entry
			// 0 is the original open, entry i reopen i. A refused dial logs
			// its endpoint too; an open breaker is never dialed.
			var mu sync.Mutex
			var served []int
			fault := tc.faults()
			var copts []ClientOption
			if tc.budget > 0 {
				copts = append(copts, WithResume(Resume{MaxResumes: tc.budget}))
			}
			if tc.others == open {
				copts = append(copts, WithBreaker(Breaker{Threshold: 5, Cooldown: time.Hour}))
			}
			clients := make([]*Client, tc.endpoints)
			for ep := range clients {
				ep, f := ep, fault(ep)
				srv := &Server{DB: db, RowFault: func(sql string) func(int64) error {
					mu.Lock()
					served = append(served, ep)
					mu.Unlock()
					if f == nil {
						return nil
					}
					return f(sql)
				}}
				clients[ep] = NewClient(func(context.Context) (net.Conn, error) {
					if ep != 0 && tc.others == refuse {
						mu.Lock()
						served = append(served, ep)
						mu.Unlock()
						return nil, errInjected
					}
					c1, c2 := net.Pipe()
					go srv.ServeConn(c2)
					return c1, nil
				}, copts...)
				if ep != 0 && tc.others == open {
					clients[ep].setBreakerState(breakerOpen)
					clients[ep].brOpenedAt = time.Now()
				}
			}
			var backend Backend = clients[0]
			if tc.endpoints > 1 {
				set := NewReplicaSet(clients)
				// The other endpoints look busier, so the stream opens on
				// endpoint 0 and only the exclusion rule, not least-in-flight
				// balancing, can move a reopen off the endpoint it died on.
				for _, rs := range set.reps[1:] {
					rs.inFlight.Add(2)
				}
				set.rr.Store(0)
				backend = set
			}
			t.Cleanup(func() { backend.Close() })

			// Record every rewrite: whether it asked for the top, and for
			// those the skip count against the rows delivered.
			var rows *Rows
			var fromTop []bool
			spec := tc.spec()
			rewrite := spec.Rewrite
			spec.Rewrite = func(key []value.Value) (string, error) {
				fromTop = append(fromTop, key == nil)
				if key == nil && rows.ties != rows.RowCount {
					t.Errorf("reopen from the top skips %d rows, want RowCount %d", rows.ties, rows.RowCount)
				}
				return rewrite(key)
			}
			rows, err := backend.QueryResumable(ctx, bigSQL, spec)
			if err != nil {
				t.Fatal(err)
			}
			var got [][]value.Value
			for {
				row, err2 := rows.Next()
				if err2 != nil {
					err = err2
					break
				}
				got = append(got, row)
			}

			switch tc.outcome {
			case healed:
				if err != io.EOF {
					t.Fatalf("err = %v, want a healed stream", err)
				}
				checkBigRows(t, got, total, 1)
			case exhausted:
				if !errors.Is(err, ErrResumeExhausted) || !errors.Is(err, ErrStreamLost) {
					t.Fatalf("err = %v, want ErrResumeExhausted (and ErrStreamLost)", err)
				}
			case lost:
				if !errors.Is(err, ErrStreamLost) || errors.Is(err, ErrResumeExhausted) {
					t.Fatalf("err = %v, want ErrStreamLost without resume exhaustion", err)
				}
			case changed:
				if err == nil || !strings.Contains(err.Error(), "source changed") {
					t.Fatalf("err = %v, want a source-changed failure", err)
				}
			}
			if tc.outcome != healed {
				checkBigRows(t, got, len(got), 1) // a clean prefix
			}

			mu.Lock()
			defer mu.Unlock()
			if rows.Resumes != tc.reopens || len(served)-1 != tc.reopens {
				t.Errorf("Resumes = %d, servers opened %d reopens, want %d", rows.Resumes, len(served)-1, tc.reopens)
			}
			if rows.Resumes > tc.budget+1 {
				t.Errorf("Resumes = %d exceeds budget %d + 1", rows.Resumes, tc.budget)
			}
			if rows.Failovers != tc.failovers {
				t.Errorf("Failovers = %d, want %d", rows.Failovers, tc.failovers)
			}
			if rows.Replica != tc.replica {
				t.Errorf("final replica = %d, want %d", rows.Replica, tc.replica)
			}
			if tc.endpoints > 1 && tc.others != open && len(served) > 1 && served[1] == served[0] {
				t.Errorf("first reopen stayed on endpoint %d it died on", served[0])
			}
			for i, top := range fromTop {
				if last := i == tc.budget; top != last {
					t.Errorf("reopen %d: Rewrite(nil) = %v, want %v (only reopen %d starts from the top)", i+1, top, last, tc.budget+1)
				}
			}
		})
	}
}

// TestResumeCutMidFrameIsByteIdentical: a stream cut partway into a row
// frame — the server flushes the rows before the cut and dies — is healed
// into exactly the bytes an uncut stream delivers. The continuation's
// boundary ties are skipped inside its first frame, so the adopted stream
// starts mid-slab.
func TestResumeCutMidFrameIsByteIdentical(t *testing.T) {
	const n, dup = 400, 3
	db := bigDB(t, n, dup)
	encode := func(rows [][]value.Value) []byte {
		var b []byte
		for _, r := range rows {
			b = value.EncodeRow(b, r)
		}
		return b
	}
	clean, err := InProcess(db).QueryResumable(ctx, bigSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := encode(drain(t, clean))
	for _, cut := range []int64{1, batchMaxRows - 1, batchMaxRows, batchMaxRows + 1, 301, 2*batchMaxRows + 100} {
		fault := killEachTextOnceAt(cut)
		onlyOriginal := func(sql string) func(int64) error {
			if sql != bigSQL {
				return nil
			}
			return fault(sql)
		}
		client := faultClient(t, db, onlyOriginal, WithResume(Resume{MaxResumes: 3}))
		rows, err := client.QueryResumable(ctx, bigSQL, bigSpec())
		if err != nil {
			t.Fatal(err)
		}
		got := encode(drain(t, rows))
		if rows.Resumes != 1 {
			t.Errorf("cut at row %d: Resumes = %d, want 1", cut, rows.Resumes)
		}
		if string(got) != string(want) {
			t.Errorf("cut at row %d: healed stream differs from the uncut one (%d vs %d bytes)", cut, len(got), len(want))
		}
	}
}
