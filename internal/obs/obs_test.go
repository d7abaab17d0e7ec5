package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"silkroute/internal/obs/obstest"
)

func TestNilSinkIsNoOp(t *testing.T) {
	var m *Metrics
	var b strings.Builder
	m.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Fatalf("nil sink wrote %d bytes of exposition", b.Len())
	}

	ctx, span := startSpan(nil, context.Background(), "noop")
	if span != nil {
		t.Fatal("nil sink produced a span")
	}
	span.SetDetail("ignored")
	span.End()
	if SpanFromContext(ctx) != nil {
		t.Fatal("nil sink attached a span to the context")
	}
}

func TestHistogramBuckets(t *testing.T) {
	if bucketBounds[0] != 100*time.Microsecond || bucketBounds[len(bucketBounds)-1] != 10*time.Second {
		t.Fatalf("bounds run %v..%v, want 100µs..10s", bucketBounds[0], bucketBounds[len(bucketBounds)-1])
	}
	for i := 1; i < len(bucketBounds); i++ {
		if r := float64(bucketBounds[i]) / float64(bucketBounds[i-1]); r < 2.1 || r > 2.2 {
			t.Errorf("bound %d/%d ratio %.3f, want 10^(1/3)", i, i-1, r)
		}
	}
	var h Histogram
	// A sample equal to a bound lands in that bound's bucket (le is <=).
	for _, d := range []time.Duration{0, 100 * time.Microsecond, 101 * time.Microsecond, time.Second, time.Minute} {
		h.Observe(d)
	}
	c, sum := h.cumulative()
	if c[0] != 2 || c[1] != 3 || c[len(bucketBounds)-1] != 4 || c[len(bucketBounds)] != 5 {
		t.Fatalf("cumulative counts = %v", c)
	}
	if want := 100*time.Microsecond + 101*time.Microsecond + time.Second + time.Minute; sum != int64(want) {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestSpanTreeParenting(t *testing.T) {
	m := NewMetrics()
	ctx := context.Background()
	ctx, root := startSpan(m, ctx, "root")
	childCtx, child := startSpan(m, ctx, "child")
	_, grand := startSpan(m, childCtx, "grandchild")
	grand.End()
	child.End()
	root.End()

	if root.Parent != 0 {
		t.Fatalf("root has parent %d", root.Parent)
	}
	if child.Trace != root.Trace || child.Parent != root.ID {
		t.Fatalf("child not parented under root: %+v vs %+v", child, root)
	}
	if grand.Trace != root.Trace || grand.Parent != child.ID {
		t.Fatalf("grandchild not parented under child")
	}
	spans := m.Tracer.Spans(root.Trace)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	tree := m.Tracer.TraceTree(root.Trace)
	want := []string{"root (", "  child (", "    grandchild ("}
	for _, w := range want {
		if !strings.Contains(tree, w) {
			t.Fatalf("tree missing %q:\n%s", w, tree)
		}
	}
}

func TestRemoteSpanStitching(t *testing.T) {
	m := NewMetrics()
	ctx, client := startSpan(m, context.Background(), "client.request")
	// Simulate the other process: only the IDs cross the wire.
	old := M()
	SetGlobal(m)
	defer SetGlobal(old)
	_, server := StartRemoteSpan(context.Background(), "server.query", client.Trace, client.ID)
	server.End()
	client.End()
	_ = ctx

	if server.Trace != client.Trace || server.Parent != client.ID {
		t.Fatalf("server span not stitched under client: %+v vs %+v", server, client)
	}
	// Untraced request: fresh root trace.
	_, root := StartRemoteSpan(context.Background(), "server.query", 0, 0)
	root.End()
	if root.Trace == 0 || root.Parent != 0 {
		t.Fatalf("untraced request did not start a root trace: %+v", root)
	}
}

func TestCountersConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Exec.RowsScanned.Add(1)
				m.Exec.QuerySeconds.Observe(time.Duration(j) * time.Millisecond)
				m.Client.InFlight.Inc()
				m.Client.InFlight.Dec()
				m.HTTP.Views.Get(fmt.Sprint("v", j%3)).Requests.Inc()
			}
		}()
	}
	wg.Wait()
	if got := m.Exec.RowsScanned.Value(); got != 8000 {
		t.Fatalf("rows scanned = %d, want 8000", got)
	}
	if c, _ := m.Exec.QuerySeconds.cumulative(); c[len(bucketBounds)] != 8000 {
		t.Fatalf("histogram count = %d, want 8000", c[len(bucketBounds)])
	}
	if got := m.Client.InFlight.Value(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
	if got := m.HTTP.Views.Get("v0").Requests.Value(); got != 8*334 {
		t.Fatalf("view v0 requests = %d, want %d", got, 8*334)
	}
}

// touchAll gives every unlabeled series of m, and every series of the
// given views and tenants, a distinct nonzero value.
func touchAll(m *Metrics, views, tenants []string) {
	for _, v := range views {
		m.HTTP.Views.Get(v)
	}
	for _, tn := range tenants {
		m.HTTP.Tenants.Get(tn)
	}
	var n int64
	families(m, func(f family) {
		for _, s := range f.series {
			n++
			switch s := s.Addr().Interface().(type) {
			case *Counter:
				s.Add(n)
			case *Gauge:
				s.Set(-n)
			case *Histogram:
				for i := int64(0); i < n; i++ {
					s.Observe(time.Duration(i*i) * time.Millisecond)
				}
			}
		}
	})
}

func exposition(m *Metrics) string {
	var b strings.Builder
	m.WritePrometheus(&b)
	return b.String()
}

func TestPrometheusExposition(t *testing.T) {
	m := NewMetrics()
	touchAll(m, []string{"q1", "q2"}, []string{"acme", "beta"})
	text := exposition(m)
	if err := obstest.CheckExposition(text); err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	var families, samples int
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			families++
		case !strings.HasPrefix(line, "#"):
			samples++
		}
	}
	// 53 unlabeled families, 9 labeled ones over two label values each;
	// a histogram series is 17 buckets, _sum and _count.
	if families != 62 || samples != 50+3*19+2*(4+19)+2*4 {
		t.Errorf("%d families, %d samples; want 62 and %d", families, samples, 50+3*19+2*(4+19)+2*4)
	}
	for _, want := range []string{
		"silkroute_planner_searches_total 1\n",
		"# TYPE silkroute_engine_query_seconds histogram\n",
		`silkroute_engine_query_seconds_bucket{le="0.0001"} 1` + "\n",
		`silkroute_engine_query_seconds_bucket{le="+Inf"} 5` + "\n",
		"silkroute_engine_query_seconds_count 5\n",
		"silkroute_engine_query_seconds_sum 0.03\n",
		`silkroute_http_view_request_seconds_bucket{view="q2",le="10"} `,
		`silkroute_http_tenant_requests_total{tenant="acme"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// labelEscapes is the escaping table: a label value as recorded, and as
// the exposition must render it.
var labelEscapes = []struct{ in, out string }{
	{"a\tb\xff", "a\tb\uFFFD"},
	{"\xff\xfe", "\uFFFD"},
	{`say "hi"`, `say \"hi\"`},
	{`C:\dir`, `C:\\dir`},
	{"two\nlines", `two\nlines`},
	{"", ""},
}

func TestLabelEscaping(t *testing.T) {
	for _, c := range labelEscapes {
		m := NewMetrics()
		m.HTTP.Tenants.Get(c.in).Requests.Inc()
		text := exposition(m)
		if err := obstest.CheckExposition(text); err != nil {
			t.Errorf("tenant %q: %v\n%s", c.in, err, text)
		}
		if want := `silkroute_http_tenant_requests_total{tenant="` + c.out + `"} 1` + "\n"; !strings.Contains(text, want) {
			t.Errorf("tenant %q: exposition lacks %q", c.in, want)
		}
	}
}

func FuzzExposition(f *testing.F) {
	for i, c := range labelEscapes {
		f.Add(c.in, labelEscapes[(i+1)%len(labelEscapes)].in, int64(i), int64(i)*int64(time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, view, tenant string, n, d int64) {
		m := NewMetrics()
		touchAll(m, []string{view, "q1"}, []string{tenant, "acme"})
		v, tn := m.HTTP.Views.Get(view), m.HTTP.Tenants.Get(tenant)
		v.Bytes.Add(n)
		v.InFlight.Set(n)
		v.Latency.Observe(time.Duration(d))
		tn.Rejected.Add(n)
		m.Server.RequestSeconds.Observe(time.Duration(d))
		text := exposition(m)
		if err := obstest.CheckExposition(text); err != nil {
			t.Fatalf("%v\n%s", err, text)
		}
	})
}

// TestDesignTableMatchesMetrics checks DESIGN.md §9's series table, row
// for row, against the families the exposition walk finds.
func TestDesignTableMatchesMetrics(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, _ := strings.Cut(string(doc), "\n## 9. ")
	sec, _, _ = strings.Cut(sec, "\n## 10. ")
	rows := map[string]bool{}
	for _, line := range strings.Split(sec, "\n") {
		if strings.HasPrefix(line, "| `silkroute_") {
			rows[line] = true
		}
	}
	families(NewMetrics(), func(f family) {
		label := ""
		if f.label != "" {
			label = "{" + f.label + "}"
		}
		row := fmt.Sprintf("| `%s%s` | %s | %s |", f.name, label, f.typ, f.help)
		if !rows[row] {
			t.Errorf("DESIGN §9 lacks the row\n%s", row)
		}
		delete(rows, row)
	})
	for row := range rows {
		t.Errorf("DESIGN §9 row matches no metric field:\n%s", row)
	}
}

func TestEveryFieldIsDeclared(t *testing.T) {
	// A metric field without a tag would be recorded but never exported.
	var check func(reflect.Type)
	check = func(st reflect.Type) {
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			_, typed := metricTypes[f.Type]
			if typed && (f.Tag.Get("metric") == "" || f.Tag.Get("help") == "") {
				t.Errorf("%s.%s has no metric name or help", st.Name(), f.Name)
			}
			if f.IsExported() && f.Type.Kind() == reflect.Struct && !typed {
				check(f.Type)
			}
		}
	}
	check(reflect.TypeOf(Metrics{}))
	check(reflect.TypeOf(ViewSeries{}))
	check(reflect.TypeOf(TenantSeries{}))
}

func TestListenAndServe(t *testing.T) {
	old := M()
	defer SetGlobal(old)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, err := ListenAndServe(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	M().Exec.RowsScanned.Add(7)

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if !strings.Contains(string(body), "silkroute_exec_rows_scanned_total 7") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}

	resp, err = http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("GET /healthz: %s %q", resp.Status, body)
	}
}
