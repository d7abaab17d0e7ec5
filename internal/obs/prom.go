package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// family is one exposition family: a tagged field's declaration and its
// series, one per label value when the field sits in a Labeled set.
type family struct {
	name, typ, help string
	label           string          // "" for an unlabeled family
	values          []string        // label values, parallel to series
	series          []reflect.Value // addressable Counter, Gauge or Histogram fields
}

// metricTypes maps a metric field's Go type to its Prometheus type.
var metricTypes = map[reflect.Type]string{
	reflect.TypeOf(Counter{}):   "counter",
	reflect.TypeOf(Gauge{}):     "gauge",
	reflect.TypeOf(Histogram{}): "histogram",
}

// walk calls fn for every field tagged `metric` in struct type t, in
// declaration order. roots are the values of t the series come from: one,
// or one per label value inside a Labeled set. Exported untagged struct
// fields are walked into; a field tagged `label` is walked with its sets.
func walk(t reflect.Type, label string, values []string, roots []reflect.Value, fn func(family)) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		fields := make([]reflect.Value, len(roots))
		for j, r := range roots {
			fields[j] = r.Field(i)
		}
		switch {
		case f.Tag.Get("metric") != "":
			fn(family{f.Tag.Get("metric"), metricTypes[f.Type], f.Tag.Get("help"), label, values, fields})
		case f.Tag.Get("label") != "":
			st, vals, sets := fields[0].Addr().Interface().(interface {
				sets() (reflect.Type, []string, []reflect.Value)
			}).sets()
			walk(st, f.Tag.Get("label"), vals, sets, fn)
		case f.IsExported() && f.Type.Kind() == reflect.Struct:
			walk(f.Type, label, values, fields, fn)
		}
	}
}

// families calls fn for every family of m, in declaration order.
func families(m *Metrics, fn func(family)) {
	v := reflect.ValueOf(m).Elem()
	walk(v.Type(), "", nil, []reflect.Value{v}, fn)
}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4). Durations are exported in seconds per
// Prometheus convention. A labeled family with no series yet is omitted.
func (m *Metrics) WritePrometheus(b *strings.Builder) {
	if m == nil {
		return
	}
	families(m, func(f family) {
		if len(f.series) == 0 {
			return
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for i, s := range f.series {
			var lbl string
			if f.label != "" {
				lbl = f.label + `="` + labelEscaper.Replace(f.values[i]) + `"`
			}
			switch s := s.Addr().Interface().(type) {
			case *Counter:
				sample(b, f.name, lbl, s.Value())
			case *Gauge:
				sample(b, f.name, lbl, s.Value())
			case *Histogram:
				c, sum := s.cumulative()
				for j, n := range c {
					le := "+Inf"
					if j < len(bucketBounds) {
						le = strconv.FormatFloat(bucketBounds[j].Seconds(), 'g', -1, 64)
					}
					sample(b, f.name+"_bucket", strings.TrimPrefix(lbl+`,le="`+le+`"`, ","), n)
				}
				sample(b, f.name+"_sum", lbl, time.Duration(sum).Seconds())
				sample(b, f.name+"_count", lbl, c[len(bucketBounds)])
			}
		}
	})
}

// labelEscaper applies the only three escapes text format 0.0.4 defines
// for label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one sample line; labels is the rendered label list, or "".
func sample(b *strings.Builder, name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s%s %v\n", name, labels, v)
}

// Handler returns an http.Handler serving /metrics (Prometheus text) and
// /healthz (200 ok) from the process-global sink. The sink is read at
// request time, so a handler created before Enable still works.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var b strings.Builder
		M().WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ListenAndServe enables the global sink and serves /metrics + /healthz on
// addr until ctx is done, then shuts the listener down. It returns once
// the listener is bound (serving continues in a goroutine), so callers can
// scrape immediately; the returned address is the bound one ("addr" may
// have port 0).
func ListenAndServe(ctx context.Context, addr string) (string, error) {
	Enable()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler()}
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}()
	go srv.Serve(l)
	return l.Addr().String(), nil
}
