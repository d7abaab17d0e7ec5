// Package viewsvc is the multi-tenant XML view service: a long-running
// HTTP server that registers many named RXL views and streams their
// materializations to many concurrent clients.
//
// The paper frames SilkRoute as *middleware* — a process that sits between
// the relational store and many XML consumers — and this package is that
// process. The structure follows the session/handler/listener split of
// production database servers: Server owns the listener lifecycle,
// admission control, and graceful drain; handler owns per-request routing
// and streaming; Session is one request's identity from admission to last
// byte; Registry is the mutable name → view table both sides share.
package viewsvc

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"silkroute"
	"silkroute/internal/rxl"
)

// entry is one named view slot: a live handle, or a broken definition
// retaining the error that explains why. Broken entries stay addressable —
// a request for one gets 503 with the parse diagnostic, while every other
// view keeps serving.
type entry struct {
	handle   *silkroute.Handle
	err      error
	source   string
	origin   string // file path or "admin"
	loadedAt time.Time
}

// ViewInfo describes one registry entry for listings.
type ViewInfo struct {
	Name     string    `json:"name"`
	OK       bool      `json:"ok"`
	Error    string    `json:"error,omitempty"`
	Origin   string    `json:"origin,omitempty"`
	Strategy string    `json:"strategy,omitempty"`
	LoadedAt time.Time `json:"loaded_at"`
}

// Registry is the shared name → view table. It is safe for concurrent use:
// lookups take a read lock, registrations a write lock, and handles are
// immutable once registered, so a view swapped mid-flight never disturbs
// streams already running against the old handle.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry

	// backends caches Dialed remotes per topology string, so many views
	// sharing one "<name>.topology" sidecar share one connection pool
	// instead of each handle dialing its own.
	beMu     sync.Mutex
	backends map[string]*silkroute.Remote
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:  make(map[string]*entry),
		backends: make(map[string]*silkroute.Remote),
	}
}

// Register installs (or replaces) a live view.
func (r *Registry) Register(name string, h *silkroute.Handle, source, origin string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = &entry{handle: h, source: source, origin: origin, loadedAt: time.Now()}
}

// RegisterBroken installs (or replaces) a view slot whose definition did
// not compile, keeping the diagnostic for requests and listings.
func (r *Registry) RegisterBroken(name string, err error, source, origin string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[name] = &entry{err: err, source: source, origin: origin, loadedAt: time.Now()}
}

// Remove deletes a view; it reports whether the name existed.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	return ok
}

// Lookup resolves a name. found=false means the name is unknown (404);
// found=true with a nil handle means the definition is broken and err
// carries the diagnostic (503).
func (r *Registry) Lookup(name string) (h *silkroute.Handle, err error, found bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, nil, false
	}
	return e.handle, e.err, true
}

// Names returns the registered view names in lexical order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Views lists every entry, lexically by name.
func (r *Registry) Views() []ViewInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ViewInfo, 0, len(r.entries))
	for name, e := range r.entries {
		vi := ViewInfo{Name: name, OK: e.err == nil, Origin: e.origin, LoadedAt: e.loadedAt}
		if e.err != nil {
			vi.Error = e.err.Error()
		} else {
			vi.Strategy = e.handle.Strategy().String()
		}
		out = append(out, vi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// describeParseError rewrites an RXL parse failure as "prefix:line:col:
// msg" — rxl errors carry a byte offset into src, which is useless to an
// operator staring at a view file until it becomes a line and column.
// Non-positional errors (schema mismatches, empty query) keep their text
// under the same prefix.
func describeParseError(err error, src, prefix string) error {
	var perr *rxl.Error
	if errors.As(err, &perr) && perr.Offset >= 0 {
		line, col := rxl.LineCol(src, perr.Offset)
		return fmt.Errorf("%s:%d:%d: %s", prefix, line, col, perr.Msg)
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// describeTopologyError rewrites a topology-string parse failure as
// "prefix:line:col: msg", the same operator-facing form describeParseError
// gives RXL files — TopologyError carries a byte offset into src.
func describeTopologyError(err error, src, prefix string) error {
	var terr *silkroute.TopologyError
	if errors.As(err, &terr) && terr.Offset >= 0 {
		line, col := rxl.LineCol(src, terr.Offset)
		return fmt.Errorf("%s:%d:%d: %s", prefix, line, col, terr.Msg)
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// backendFor resolves a view's backend from an optional topology sidecar:
// with a parsed topology it returns a Dialed remote, cached per canonical
// topology string so sibling views share one pool; without, the default
// backend def passes through.
func (r *Registry) backendFor(t silkroute.Topology, def silkroute.Backend, opts []silkroute.Option) (silkroute.Backend, error) {
	if t.IsZero() {
		return def, nil
	}
	key := t.String()
	r.beMu.Lock()
	defer r.beMu.Unlock()
	if re, ok := r.backends[key]; ok {
		return re, nil
	}
	re, err := silkroute.Dial(t, opts...)
	if err != nil {
		return nil, err
	}
	r.backends[key] = re
	return re, nil
}

// Close releases every topology-dialed backend the registry cached.
func (r *Registry) Close() error {
	r.beMu.Lock()
	defer r.beMu.Unlock()
	var first error
	for key, re := range r.backends {
		if err := re.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.backends, key)
	}
	return first
}

// Compile builds a handle from RXL source, rewriting parse failures into
// the positioned form the admin endpoint wants ("view name:line:col: msg").
func Compile(name string, b silkroute.Backend, src string, opts ...silkroute.Option) (*silkroute.Handle, error) {
	h, err := silkroute.NewHandle(name, b, src, opts...)
	if err != nil {
		return nil, describeParseError(err, src, "view "+name)
	}
	return h, nil
}

// LoadDir compiles every "*.rxl" file in dir as a view named after its
// basename ("orders.rxl" → view "orders"). A file that fails to read or
// parse registers a *broken* entry — its error pinpointing file:line:col —
// so one bad view file degrades that one name to 503 instead of aborting
// the whole registry. Only dir-level failures (unreadable directory) are
// returned as err.
//
// A sidecar "<name>.topology" file next to "<name>.rxl" binds that view to
// its own backend topology (ParseTopology syntax — "a:7070", "a,b", or
// "s0=a,b;s1=c,d"), so a hosted view can be replica- or shard-backed while
// its siblings use the default backend. Views naming the same topology
// share one dialed connection. A malformed sidecar degrades its view to
// 503 with a file:line:col diagnostic, like a malformed RXL file.
func (r *Registry) LoadDir(dir string, b silkroute.Backend, opts ...silkroute.Option) (ok, broken int, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.rxl"))
	if err != nil {
		return 0, 0, fmt.Errorf("viewsvc: load %s: %w", dir, err)
	}
	if files == nil {
		// Distinguish "empty dir" from "no dir": an operator pointing the
		// server at a mistyped path should hear about it.
		if _, serr := os.Stat(dir); serr != nil {
			return 0, 0, fmt.Errorf("viewsvc: load views: %w", serr)
		}
	}
	sort.Strings(files)
	for _, path := range files {
		if r.loadFile(path, b, opts) {
			ok++
		} else {
			broken++
		}
	}
	return ok, broken, nil
}

// loadFile compiles one "*.rxl" file (with its optional topology sidecar)
// into the registry — a live entry on success, a broken one carrying the
// diagnostic otherwise. It reports whether the entry is live.
func (r *Registry) loadFile(path string, b silkroute.Backend, opts []silkroute.Option) bool {
	name := strings.TrimSuffix(filepath.Base(path), ".rxl")
	raw, rerr := os.ReadFile(path)
	if rerr != nil {
		r.RegisterBroken(name, rerr, "", path)
		return false
	}
	src := string(raw)
	backend := b
	tpath := strings.TrimSuffix(path, ".rxl") + ".topology"
	if traw, terr := os.ReadFile(tpath); terr == nil {
		tsrc := string(traw)
		topo, perr := silkroute.ParseTopology(tsrc)
		if perr != nil {
			r.RegisterBroken(name, describeTopologyError(perr, tsrc, tpath), src, path)
			return false
		}
		be, derr := r.backendFor(topo, b, opts)
		if derr != nil {
			r.RegisterBroken(name, fmt.Errorf("%s: %w", tpath, derr), src, path)
			return false
		}
		backend = be
	} else if !errors.Is(terr, fs.ErrNotExist) {
		r.RegisterBroken(name, terr, src, path)
		return false
	}
	h, cerr := silkroute.NewHandle(name, backend, src, opts...)
	if cerr != nil {
		r.RegisterBroken(name, describeParseError(cerr, src, path), src, path)
		return false
	}
	r.Register(name, h, src, path)
	return true
}
