package viewsvc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"silkroute"
	"silkroute/internal/obs"
)

// streamBufBytes is the coalescing buffer between the tagger and the HTTP
// response: the tagger's many small writes become ~32 KiB chunks on the
// wire, so a document streams incrementally (chunked transfer, no
// full-document buffering) without per-element flush overhead.
const streamBufBytes = 32 << 10

// maxViewDefBytes bounds an admin-submitted view definition.
const maxViewDefBytes = 1 << 20

// minHTTPBudget is the smallest deadline budget worth admitting: a request
// that cannot possibly finish within it is answered 504 before taking any
// quota, slot, or backend work.
const minHTTPBudget = time.Millisecond

// Request and response headers of the overload-control surface.
const (
	// HeaderTenant names the requesting tenant (request) and echoes the
	// resolved identity (response). A recognized API key outranks it.
	HeaderTenant = "Silkroute-Tenant"
	// HeaderBudget carries the client's remaining deadline budget as a Go
	// duration string ("250ms", "2s"). The server serves within
	// min(budget, RequestTimeout) and propagates the remainder to its
	// backends on the wire.
	HeaderBudget = "Silkroute-Budget"
	// HeaderStale marks a degraded response served from the fragment cache
	// ("true"); HeaderStaleAge carries the entry's age as a duration.
	HeaderStale    = "Silkroute-Stale"
	HeaderStaleAge = "Silkroute-Stale-Age"
)

// handler is the per-request half of the service: routing, admission,
// streaming, and the admin surface. It holds no state of its own — every
// field it needs lives on the Server, so handler values are free to
// construct per mux.
type handler struct {
	srv *Server
}

func (h *handler) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /views", h.listViews)
	mux.HandleFunc("GET /views/{name}", h.serveView)
	mux.HandleFunc("GET /views/{name}/explain", h.explainView)
	if h.srv.cfg.Admin {
		mux.HandleFunc("PUT /views/{name}", h.putView)
		mux.HandleFunc("DELETE /views/{name}", h.deleteView)
	}
	mux.HandleFunc("GET /sessions", h.listSessions)
	mux.HandleFunc("GET /tenants", h.listTenants)
	// The observability endpoints ride the same mux (and therefore the
	// same listener, drain, and port) as the data plane.
	omux := obs.Handler()
	mux.Handle("GET /metrics", omux)
	mux.Handle("GET /healthz", omux)
	return mux
}

// tenantFor resolves the request's tenant identity: a recognized API key
// (Authorization: Bearer or X-Api-Key) wins, then the Silkroute-Tenant
// header, then DefaultTenant. An unrecognized key is ignored rather than
// rejected — identity gates quotas here, not access.
func (h *handler) tenantFor(r *http.Request) string {
	if keys := h.srv.cfg.APIKeys; len(keys) > 0 {
		key := r.Header.Get("X-Api-Key")
		if key == "" {
			if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
				key = strings.TrimPrefix(auth, "Bearer ")
			}
		}
		if key != "" {
			if t, ok := keys[key]; ok {
				return t
			}
		}
	}
	if t := r.Header.Get(HeaderTenant); t != "" {
		return t
	}
	return DefaultTenant
}

// retrySecs renders a Retry-After duration as whole seconds, rounding up
// and never below 1 (a zero header invites an immediate retry).
func retrySecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// refuse answers a request admission turned away. The status says whose
// problem it is: 429 the tenant's own quota ("back off, you"), 503 the
// server's saturation ("back off, everyone"); both carry the Retry-After
// admit computed. 504 is a budget spent before admission, 400 a malformed
// one.
func (h *handler) refuse(w http.ResponseWriter, tenant string, ref *refusal) {
	switch ref.status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", retrySecs(ref.retryAfter))
	}
	if m := obs.M(); m != nil {
		switch ref.status {
		case http.StatusTooManyRequests:
			m.HTTP.RejectedTenant.Inc()
			m.HTTP.Tenants.Get(tenant).Rejected.Inc()
		case http.StatusServiceUnavailable:
			m.HTTP.Rejected.Inc()
		case http.StatusGatewayTimeout:
			m.HTTP.BudgetExpired.Inc()
		}
	}
	http.Error(w, ref.msg, ref.status)
}

// view resolves the request's view and strategy — the view's own, or a
// ?strategy= override — answering 404, 503 or 400 itself when it cannot.
func (h *handler) view(w http.ResponseWriter, r *http.Request) (*silkroute.Handle, silkroute.Strategy, bool) {
	name := r.PathValue("name")
	handle, brokenErr, found := h.srv.cfg.Registry.Lookup(name)
	if !found {
		http.Error(w, fmt.Sprintf("unknown view %q", name), http.StatusNotFound)
		return nil, 0, false
	}
	if brokenErr != nil {
		// The view is registered but its definition does not compile: that
		// one name is down, the rest of the registry serves normally.
		http.Error(w, "view unavailable: "+brokenErr.Error(), http.StatusServiceUnavailable)
		return nil, 0, false
	}
	strat := handle.Strategy()
	if q := r.URL.Query().Get("strategy"); q != "" {
		var err error
		if strat, err = silkroute.ParseStrategy(q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return nil, 0, false
		}
	}
	return handle, strat, true
}

// deadline sets the request's effective deadline: the tighter of the
// server's own RequestTimeout and the client's declared budget. It bounds
// the request context (so the wire layer propagates the remainder to every
// backend query, resume, and scatter) and the write deadline (so a stalled
// client cannot hold a slot past it). A malformed budget is refused 400,
// one too small to use any answer 504, both before taking quota, a slot,
// or a backend stream.
func (h *handler) deadline(r *http.Request, s *Session) *refusal {
	if t := h.srv.cfg.Limits.RequestTimeout; t > 0 {
		s.Deadline = s.Started.Add(t)
	}
	if hdr := r.Header.Get(HeaderBudget); hdr != "" {
		budget, err := time.ParseDuration(hdr)
		if err != nil {
			return &refusal{status: http.StatusBadRequest, msg: fmt.Sprintf("invalid %s %q: %v", HeaderBudget, hdr, err)}
		}
		if bd := s.Started.Add(budget); s.Deadline.IsZero() || bd.Before(s.Deadline) {
			s.Deadline = bd
		}
	}
	if !s.Deadline.IsZero() && s.Deadline.Sub(s.Started) < minHTTPBudget {
		return &refusal{status: http.StatusGatewayTimeout, msg: "deadline budget spent before admission"}
	}
	return nil
}

// serveView streams one materialization. The response is chunked: bytes
// leave as the tagger emits them, and a failure after the first byte
// aborts the connection outright (http.ErrAbortHandler) — the client sees
// a transport error, never a syntactically plausible truncated document.
//
// Admission is one call: admit resolves the tenant, runs the budget,
// quota and MaxConcurrent checks, and registers the session; closing the
// session is the only release.
func (h *handler) serveView(w http.ResponseWriter, r *http.Request) {
	handle, strat, ok := h.view(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	sess := &Session{View: name, Strategy: strat.String(), RemoteAddr: r.RemoteAddr,
		Started: time.Now(), bytes: new(atomic.Int64)}
	ref := h.srv.adm.admit(sess, h.tenantFor(r), h.deadline(r, sess))
	w.Header().Set(HeaderTenant, sess.Tenant)
	if ref != nil {
		h.refuse(w, sess.Tenant, ref)
		return
	}
	defer h.srv.adm.close(sess)

	ctx := r.Context()
	if deadline := sess.Deadline; !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
		// The context stops planning and query execution; the write
		// deadline stops a stream stalled on a dead or glacial client,
		// which a context alone cannot interrupt mid-Write.
		http.NewResponseController(w).SetWriteDeadline(deadline)
	}

	if h.srv.cfg.Hooks.StreamStarted != nil {
		h.srv.cfg.Hooks.StreamStarted(sess)
	}
	if m := obs.M(); m != nil {
		m.HTTP.Sessions.Inc()
		m.HTTP.Requests.Inc()
		m.HTTP.InFlight.Inc()
		v, t := m.HTTP.Views.Get(name), m.HTTP.Tenants.Get(sess.Tenant)
		v.Requests.Inc()
		v.InFlight.Inc()
		t.Requests.Inc()
		t.InFlight.Inc()
	}
	start := time.Now()

	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Silkroute-View", name)
	w.Header().Set("Silkroute-Strategy", sess.Strategy)

	out := &limitWriter{w: w, limit: h.srv.cfg.Limits.MaxResponseBytes, n: sess.bytes}
	bw := bufio.NewWriterSize(out, streamBufBytes)
	_, err := handle.View().Materialize(ctx, bw, strat)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil && out.n.Load() == 0 {
		// Nothing escaped to the client (anything the materialization
		// produced is stranded in the abandoned bufio buffer), so the
		// response is still ours to shape: try stale, else a clean error.
		if h.serveStale(w, handle, out, err) {
			err = nil
		}
	}
	written := out.n.Load()
	if m := obs.M(); m != nil {
		m.HTTP.InFlight.Dec()
		v, t := m.HTTP.Views.Get(name), m.HTTP.Tenants.Get(sess.Tenant)
		v.InFlight.Dec()
		v.Bytes.Add(written)
		v.Latency.Observe(time.Since(start))
		if err != nil {
			v.Errors.Inc()
		}
		t.InFlight.Dec()
		t.Bytes.Add(written)
	}
	if err == nil {
		return
	}
	if written > 0 {
		// Fail closed mid-stream: kill the connection rather than finish
		// the chunked encoding around a truncated document.
		panic(http.ErrAbortHandler)
	}
	if !sess.Deadline.IsZero() {
		// The expired write deadline would otherwise kill the error
		// response too; clear it — the status line is the whole point.
		http.NewResponseController(w).SetWriteDeadline(time.Time{})
	}
	switch {
	case errors.Is(err, silkroute.ErrUnsupportedPlan):
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// serveStale attempts the graceful-degradation path after a zero-byte
// failure: when enabled and the error says the backend is entirely
// unhealthy, serve the view's last complete fragment-cache entry, flagged
// with the Silkroute-Stale headers set before the first body byte. The
// entry is one immutable snapshot, looked up once, so what the headers
// describe is what is written. Reported true only when the stale document
// was written whole; a failed write panics fail-closed like the fresh
// path.
func (h *handler) serveStale(w http.ResponseWriter, handle *silkroute.Handle, out io.Writer, cause error) bool {
	if !h.srv.cfg.ServeStale || !silkroute.BackendUnhealthy(cause) {
		return false
	}
	doc, age, ok := handle.View().Stale()
	if !ok {
		return false
	}
	if m := obs.M(); m != nil {
		m.HTTP.StaleServes.Inc()
	}
	w.Header().Set(HeaderStale, "true")
	w.Header().Set(HeaderStaleAge, age.Round(time.Millisecond).String())
	// The stale document comes from memory; a deadline the backend blew
	// need not kill this last-resort write.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	if _, err := doc.WriteTo(out); err != nil {
		panic(http.ErrAbortHandler)
	}
	return true
}

// explainView reports the plan a strategy would run for a view — edge
// sets and per-stream SQL — without executing any query.
func (h *handler) explainView(w http.ResponseWriter, r *http.Request) {
	handle, strat, ok := h.view(w, r)
	if !ok {
		return
	}
	e, err := handle.View().Explain(r.Context(), strat)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, e.String())
}

// listViews reports every registry entry as JSON.
func (h *handler) listViews(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.srv.cfg.Registry.Views())
}

// listSessions reports the live sessions as JSON, in admission order,
// including each session's tenant, remaining deadline budget, and bytes
// written so far.
func (h *handler) listSessions(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.srv.adm.sessions())
}

// listTenants reports per-tenant quota state — configured limits, current
// token-bucket depth, in-flight streams, and rejection counts — for every
// tenant the server has seen.
func (h *handler) listTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.srv.adm.states())
}

// putView registers (or replaces) a view from the request body's RXL
// source. A definition that fails to compile answers 400 with a
// line:column diagnostic and registers nothing.
func (h *handler) putView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if h.srv.cfg.Backend == nil {
		http.Error(w, "admin registration not configured (no backend)", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxViewDefBytes))
	if err != nil {
		http.Error(w, "read view definition: "+err.Error(), http.StatusBadRequest)
		return
	}
	src := string(body)
	opts := h.srv.cfg.Options
	if q := r.URL.Query().Get("strategy"); q != "" {
		strat, err := silkroute.ParseStrategy(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		opts = append(append([]silkroute.Option(nil), opts...), silkroute.WithStrategy(strat))
	}
	handle, err := Compile(name, h.srv.cfg.Backend, src, opts...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, _, existed := h.srv.cfg.Registry.Lookup(name)
	h.srv.cfg.Registry.Register(name, handle, src, "admin")
	if existed {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusCreated)
	}
	fmt.Fprintf(w, "view %s registered (strategy %s)\n", name, handle.Strategy())
}

// deleteView removes a view from the registry.
func (h *handler) deleteView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !h.srv.cfg.Registry.Remove(name) {
		http.Error(w, fmt.Sprintf("unknown view %q", name), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errResponseTooLarge aborts a stream past Limits.MaxResponseBytes.
var errResponseTooLarge = errors.New("viewsvc: response exceeds byte limit")

// limitWriter is the response body under the bufio coalescer: it fails
// the stream once the byte budget would be exceeded, flushes each chunk to
// the client as soon as it is written (the coalescer decides chunk size;
// this layer guarantees forward progress), and counts the bytes into the
// session's counter, the stream's one byte count. A budget error unwinds
// the materialization, and the handler's fail-closed path kills the
// connection.
type limitWriter struct {
	w     http.ResponseWriter
	limit int64 // <= 0 means unlimited
	n     *atomic.Int64
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.limit > 0 && lw.n.Load()+int64(len(p)) > lw.limit {
		return 0, errResponseTooLarge
	}
	n, err := lw.w.Write(p)
	lw.n.Add(int64(n))
	if f, ok := lw.w.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}
