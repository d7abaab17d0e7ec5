package viewsvc

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"silkroute"
)

// DefaultMaxConcurrent is the admission limit when Limits.MaxConcurrent
// is left zero.
const DefaultMaxConcurrent = 64

// Limits bounds what one request may cost the server.
type Limits struct {
	// MaxConcurrent caps how many view materializations stream at once;
	// requests beyond it are refused with 503 + Retry-After rather than
	// queued (the client can see saturation and back off). <= 0 means
	// DefaultMaxConcurrent.
	MaxConcurrent int
	// RequestTimeout bounds one request from admission through its last
	// byte. A stream that outlives it is aborted fail-closed (the
	// connection dies mid-body; the client never mistakes the prefix for a
	// complete document). 0 imposes none.
	RequestTimeout time.Duration
	// MaxResponseBytes aborts (fail-closed) any response that would exceed
	// it — a runaway view cannot monopolize the egress. 0 imposes none.
	MaxResponseBytes int64
}

func (l Limits) maxConcurrent() int {
	if l.MaxConcurrent <= 0 {
		return DefaultMaxConcurrent
	}
	return l.MaxConcurrent
}

// Hooks are optional instrumentation points. They run synchronously on the
// request goroutine; keep them fast.
type Hooks struct {
	// StreamStarted fires after a request passes admission control, right
	// before planning begins.
	StreamStarted func(s *Session)
}

// Config assembles a Server.
type Config struct {
	// Registry is the name → view table the server resolves against.
	// Required.
	Registry *Registry
	// Limits bounds per-request and server-wide resource use.
	Limits Limits
	// Admin enables the mutating endpoints (PUT/DELETE /views/{name}).
	// Off by default: a public read surface should not accept view
	// definitions.
	Admin bool
	// Backend compiles admin-registered views; required when Admin is set.
	Backend silkroute.Backend
	// Options configure admin-registered views (same list NewHandle
	// takes); the server's config thereby maps 1:1 onto the facade's
	// unified option set.
	Options []silkroute.Option
	// Hooks are optional instrumentation points.
	Hooks Hooks
	// Tenants assigns per-tenant overload limits by tenant name. Tenants
	// not listed here get TenantDefaults.
	Tenants map[string]TenantLimits
	// TenantDefaults applies to every tenant without an explicit entry in
	// Tenants (including DefaultTenant). The zero value imposes no
	// per-tenant limits — only the global semaphore gates.
	TenantDefaults TenantLimits
	// APIKeys maps API keys (Authorization: Bearer or X-Api-Key) to tenant
	// names. A recognized key outranks the Silkroute-Tenant header; an
	// empty map disables key lookup.
	APIKeys map[string]string
	// ServeStale opts the HTTP surface into graceful degradation: when the
	// backend is entirely unhealthy and no fresh byte has been written, a
	// view's last complete fragment-cache entry is served with
	// Silkroute-Stale headers instead of an error. Views need a fragment
	// cache (WithFragmentCache) for this to ever apply; without a cached
	// entry the request fails closed exactly as before.
	ServeStale bool
}

// Server is the listener/lifecycle half of the view service: it owns the
// admission semaphore, the live-session table, and graceful drain. The
// per-request half lives in handler.
type Server struct {
	cfg      Config
	sem      chan struct{}
	sessions *sessionTable
	tenants  *tenantTable
	httpSrv  *http.Server
}

// New builds a Server from cfg. It panics on a nil Registry (a
// programming error, not a runtime condition).
func New(cfg Config) *Server {
	if cfg.Registry == nil {
		panic("viewsvc: Config.Registry is required")
	}
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Limits.maxConcurrent()),
		sessions: newSessionTable(),
		tenants:  newTenantTable(cfg),
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s
}

// Handler returns the full HTTP surface: view streaming and listing,
// admin registration when enabled, /sessions introspection, and the
// observability endpoints (/metrics, /healthz) on the same mux.
func (s *Server) Handler() http.Handler {
	h := &handler{srv: s}
	return h.mux()
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean drain, mirroring net/http.
func (s *Server) Serve(l net.Listener) error {
	return s.httpSrv.Serve(l)
}

// Shutdown drains gracefully: listeners close (new requests are refused at
// the TCP level), in-flight streams run to completion — a drained server
// never truncates a document — and only then does Shutdown return. ctx
// bounds the wait; on expiry the remaining connections are force-closed
// and ctx's error is returned, exactly the discipline of
// wire.Server.Shutdown.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.httpSrv.Close()
	}
	return err
}

// LiveSessions reports how many admitted requests are currently streaming.
func (s *Server) LiveSessions() int { return s.sessions.count() }

// ServeContext serves on l until ctx is cancelled, then drains with the
// given grace period. It returns nil after a clean drain — the packaging
// cmd/silkrouted wants for SIGTERM handling.
func (s *Server) ServeContext(ctx context.Context, l net.Listener, grace time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := s.Shutdown(sctx)
	<-done // Serve has returned ErrServerClosed; surface Shutdown's verdict
	return err
}
