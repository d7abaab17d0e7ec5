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

// rejectGlobal answers a request the global admission semaphore refused:
// 503 with a Retry-After derived from the observed session drain rate —
// the age of the oldest live stream spread across the quota — rather than
// a static constant.
func (h *handler) rejectGlobal(w http.ResponseWriter) {
	if m := obs.M(); m != nil {
		m.HTTP.Rejected.Inc()
	}
	oldest, _ := h.srv.sessions.oldestAge("")
	ra := drainRetryAfter(oldest, h.srv.cfg.Limits.maxConcurrent())
	w.Header().Set("Retry-After", retrySecs(ra))
	http.Error(w, "server saturated: concurrent stream limit reached", http.StatusServiceUnavailable)
}

// rejectTenant answers a request the tenant's own quota refused: 429, so
// the client can tell "back off, you" (its quota) from the 503 "back off,
// everyone" (server saturation). The Retry-After is exact for a drained
// token bucket (time until the next token) and drain-derived for a full
// concurrency quota.
func (h *handler) rejectTenant(w http.ResponseWriter, ten *tenant, retryAfter time.Duration, cause string) {
	if m := obs.M(); m != nil {
		m.HTTP.RejectedTenant.Inc()
		m.HTTP.Tenants.Get(ten.name).Rejected.Inc()
	}
	if cause == "concurrency" {
		oldest, _ := h.srv.sessions.oldestAge(ten.name)
		retryAfter = drainRetryAfter(oldest, ten.limits.MaxConcurrent)
	}
	w.Header().Set("Retry-After", retrySecs(retryAfter))
	http.Error(w, fmt.Sprintf("tenant %q over %s quota", ten.name, cause), http.StatusTooManyRequests)
}

// serveView streams one materialization. The response is chunked: bytes
// leave as the tagger emits them, and a failure after the first byte
// aborts the connection outright (http.ErrAbortHandler) — the client sees
// a transport error, never a syntactically plausible truncated document.
//
// Admission runs in fixed order: tenant resolution, deadline-budget
// check (504, no slot), the tenant's token bucket and concurrency quota
// (429), then the global semaphore (503). Per-tenant gates come first so
// one tenant's burst is charged to that tenant before it can contend for
// the shared slots.
func (h *handler) serveView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	handle, brokenErr, found := h.srv.cfg.Registry.Lookup(name)
	if !found {
		http.Error(w, fmt.Sprintf("unknown view %q", name), http.StatusNotFound)
		return
	}
	if brokenErr != nil {
		// The view is registered but its definition does not compile: that
		// one name is down, the rest of the registry serves normally.
		http.Error(w, "view unavailable: "+brokenErr.Error(), http.StatusServiceUnavailable)
		return
	}
	strat := handle.Strategy()
	if q := r.URL.Query().Get("strategy"); q != "" {
		var err error
		if strat, err = silkroute.ParseStrategy(q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}

	ten := h.srv.tenants.get(h.tenantFor(r))
	tenantName := ten.name
	w.Header().Set(HeaderTenant, tenantName)

	// Effective deadline: the tighter of the server's own RequestTimeout
	// and the client's declared budget. It bounds the request context (so
	// the wire layer propagates the remainder to every backend query,
	// resume, and scatter) and the write deadline (so a stalled
	// client cannot hold a slot past it).
	limits := h.srv.cfg.Limits
	now := time.Now()
	var deadline time.Time
	if limits.RequestTimeout > 0 {
		deadline = now.Add(limits.RequestTimeout)
	}
	if hdr := r.Header.Get(HeaderBudget); hdr != "" {
		budget, err := time.ParseDuration(hdr)
		if err != nil {
			http.Error(w, fmt.Sprintf("invalid %s %q: %v", HeaderBudget, hdr, err), http.StatusBadRequest)
			return
		}
		if bd := now.Add(budget); deadline.IsZero() || bd.Before(deadline) {
			deadline = bd
		}
	}
	if !deadline.IsZero() && deadline.Sub(now) < minHTTPBudget {
		// The client cannot use any answer we could produce: fail fast
		// before taking quota, a slot, or a backend stream.
		if m := obs.M(); m != nil {
			m.HTTP.BudgetExpired.Inc()
		}
		http.Error(w, "deadline budget spent before admission", http.StatusGatewayTimeout)
		return
	}

	// Tenant admission: the tenant's own token bucket and concurrency
	// carve-out, charged before the shared semaphore.
	if ok, retryAfter, cause := ten.admit(now); !ok {
		h.rejectTenant(w, ten, retryAfter, cause)
		return
	}
	defer ten.release()

	// Global admission: a bounded semaphore, not a queue. A saturated
	// server says so immediately; the client owns the backoff.
	select {
	case h.srv.sem <- struct{}{}:
	default:
		h.rejectGlobal(w)
		return
	}
	defer func() { <-h.srv.sem }()

	sess := h.srv.sessions.open(name, strat.String(), tenantName, r.RemoteAddr, deadline)
	defer h.srv.sessions.close(sess)

	ctx := r.Context()
	if !deadline.IsZero() {
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
		v, t := m.HTTP.Views.Get(name), m.HTTP.Tenants.Get(tenantName)
		v.Requests.Inc()
		v.InFlight.Inc()
		t.Requests.Inc()
		t.InFlight.Inc()
	}
	start := time.Now()

	w.Header().Set("Content-Type", "application/xml; charset=utf-8")
	w.Header().Set("Silkroute-View", name)
	w.Header().Set("Silkroute-Strategy", strat.String())

	out := &limitWriter{w: &flushWriter{w: w}, limit: limits.MaxResponseBytes, counter: sess.bytes}
	bw := bufio.NewWriterSize(out, streamBufBytes)
	_, err := handle.View().Materialize(ctx, bw, strat)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil && out.n == 0 {
		// Nothing escaped to the client (anything the materialization
		// produced is stranded in the abandoned bufio buffer), so the
		// response is still ours to shape: try stale, else a clean error.
		if h.serveStale(w, handle, out, err) {
			err = nil
		}
	}
	if m := obs.M(); m != nil {
		m.HTTP.InFlight.Dec()
		v, t := m.HTTP.Views.Get(name), m.HTTP.Tenants.Get(tenantName)
		v.InFlight.Dec()
		v.Bytes.Add(out.n)
		v.Latency.Observe(time.Since(start))
		if err != nil {
			v.Errors.Inc()
		}
		t.InFlight.Dec()
		t.Bytes.Add(out.n)
	}
	if err == nil {
		return
	}
	if out.n > 0 {
		// Fail closed mid-stream: kill the connection rather than finish
		// the chunked encoding around a truncated document.
		panic(http.ErrAbortHandler)
	}
	if !deadline.IsZero() {
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
// with the Silkroute-Stale headers set before the first body byte.
// Reported true only when a complete stale document was written; on a
// mid-write failure it panics fail-closed like the fresh path (out.n > 0
// guarantees the caller cannot mistake the outcome). On a zero-byte miss
// the headers are withdrawn and false is returned — the caller's error
// mapping proceeds untouched.
func (h *handler) serveStale(w http.ResponseWriter, handle *silkroute.Handle, out *limitWriter, cause error) bool {
	if !h.srv.cfg.ServeStale || !silkroute.BackendUnhealthy(cause) {
		return false
	}
	age, ok := handle.View().StaleEntry()
	if !ok {
		return false
	}
	w.Header().Set(HeaderStale, "true")
	w.Header().Set(HeaderStaleAge, age.Round(time.Millisecond).String())
	// The stale document comes from memory; a deadline the backend blew
	// need not kill this last-resort write.
	http.NewResponseController(w).SetWriteDeadline(time.Time{})
	_, served, err := handle.View().WriteStale(out)
	if !served && out.n == 0 {
		// The entry vanished between the peek and the write (invalidation
		// race); nothing was sent, so withdraw the headers and fail as if
		// there had been no entry at all.
		w.Header().Del(HeaderStale)
		w.Header().Del(HeaderStaleAge)
		return false
	}
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	return true
}

// explainView reports the plan a strategy would run for a view — edge
// sets and per-stream SQL — without executing any query.
func (h *handler) explainView(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	handle, brokenErr, found := h.srv.cfg.Registry.Lookup(name)
	if !found {
		http.Error(w, fmt.Sprintf("unknown view %q", name), http.StatusNotFound)
		return
	}
	if brokenErr != nil {
		http.Error(w, "view unavailable: "+brokenErr.Error(), http.StatusServiceUnavailable)
		return
	}
	strat := handle.Strategy()
	if q := r.URL.Query().Get("strategy"); q != "" {
		var err error
		if strat, err = silkroute.ParseStrategy(q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
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
	writeJSON(w, h.srv.sessions.snapshot())
}

// listTenants reports per-tenant quota state — configured limits, current
// token-bucket depth, in-flight streams, and rejection counts — for every
// tenant the server has seen.
func (h *handler) listTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, h.srv.tenants.states(time.Now()))
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

// flushWriter pushes each chunk to the client as soon as it is written:
// the ResponseWriter's own buffering plus the bufio coalescer above it
// decide chunk size; this layer only guarantees forward progress.
type flushWriter struct {
	w http.ResponseWriter
	f http.Flusher
	// probed defers the Flusher type-assert until the first write.
	probed bool
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if !fw.probed {
		fw.f, _ = fw.w.(http.Flusher)
		fw.probed = true
	}
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// errResponseTooLarge aborts a stream past Limits.MaxResponseBytes.
var errResponseTooLarge = errors.New("viewsvc: response exceeds byte limit")

// limitWriter counts bytes through and fails the stream when the byte
// budget is exceeded. The error unwinds the materialization, and the
// handler's fail-closed path kills the connection. The optional counter
// mirrors the running total into the session table so /sessions can show
// live per-stream progress.
type limitWriter struct {
	w       io.Writer
	n       int64
	limit   int64 // <= 0 means unlimited
	counter *atomic.Int64
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.limit > 0 && lw.n+int64(len(p)) > lw.limit {
		return 0, errResponseTooLarge
	}
	n, err := lw.w.Write(p)
	lw.n += int64(n)
	if lw.counter != nil {
		lw.counter.Add(int64(n))
	}
	return n, err
}
