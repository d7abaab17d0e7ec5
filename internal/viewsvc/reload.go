package viewsvc

// Hot reload of file-backed views. A Watcher polls the view directory the
// server was loaded from and recompiles any "*.rxl" whose file (or
// "<name>.topology" sidecar) has changed, swapping the registry entry
// atomically: Lookup hands out immutable handles, so streams already
// running keep the binding they started with and finish on the old view,
// while the next request sees the new one. Deleted files unregister their
// view — unless an admin has since replaced it over HTTP, which outranks
// the file. No restart, no dropped streams.

import (
	"context"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"silkroute"
	"silkroute/internal/obs"
)

// fileSig fingerprints one view's on-disk definition: mtime and size of
// the RXL file and of its optional topology sidecar. Polling compares
// signatures instead of re-reading content — cheap enough to run every
// second over hundreds of views.
type fileSig struct {
	rxlMod   time.Time
	rxlSize  int64
	topoMod  time.Time
	topoSize int64
	hasTopo  bool
}

// Watcher polls one view directory for definition changes. It is not
// safe for concurrent use; run it from a single goroutine (Run does).
type Watcher struct {
	reg  *Registry
	dir  string
	b    silkroute.Backend
	opts []silkroute.Option
	seen map[string]fileSig // rxl path -> last loaded signature
}

// NewWatcher prepares a watcher over dir, recording the current file
// signatures as the baseline — call it right after LoadDir, so the first
// Rescan reloads only what has changed since, not everything.
func (r *Registry) NewWatcher(dir string, b silkroute.Backend, opts ...silkroute.Option) *Watcher {
	w := &Watcher{reg: r, dir: dir, b: b, opts: opts, seen: make(map[string]fileSig)}
	for _, path := range w.list() {
		if sig, ok := w.sig(path); ok {
			w.seen[path] = sig
		}
	}
	return w
}

func (w *Watcher) list() []string {
	files, _ := filepath.Glob(filepath.Join(w.dir, "*.rxl"))
	sort.Strings(files)
	return files
}

// sig stats path and its topology sidecar. ok=false means the RXL file
// vanished between glob and stat — skip, the next tick sees the deletion.
func (w *Watcher) sig(path string) (fileSig, bool) {
	fi, err := os.Stat(path)
	if err != nil {
		return fileSig{}, false
	}
	s := fileSig{rxlMod: fi.ModTime(), rxlSize: fi.Size()}
	if ti, terr := os.Stat(strings.TrimSuffix(path, ".rxl") + ".topology"); terr == nil {
		s.hasTopo = true
		s.topoMod = ti.ModTime()
		s.topoSize = ti.Size()
	}
	return s, true
}

// Rescan diffs the directory against the last scan and applies changes:
// new or modified files recompile and swap their registry entry (a broken
// compile degrades that one view to 503, same as LoadDir), deleted files
// unregister theirs. It reports what happened; obs counts reloads and
// reload failures.
func (w *Watcher) Rescan() (reloaded, removed, failed int) {
	current := make(map[string]bool, len(w.seen))
	for _, path := range w.list() {
		current[path] = true
		sig, ok := w.sig(path)
		if !ok {
			continue
		}
		if old, known := w.seen[path]; known && old == sig {
			continue
		}
		w.seen[path] = sig
		if w.reg.loadFile(path, w.b, w.opts) {
			reloaded++
		} else {
			failed++
		}
	}
	for path := range w.seen {
		if current[path] {
			continue
		}
		delete(w.seen, path)
		name := strings.TrimSuffix(filepath.Base(path), ".rxl")
		if w.reg.removeIfOrigin(name, path) {
			removed++
		}
	}
	if m := obs.M(); m != nil {
		m.HTTP.Reloads.Add(int64(reloaded))
		m.HTTP.ReloadErrors.Add(int64(failed))
	}
	return reloaded, removed, failed
}

// Run polls every interval until ctx ends. interval <= 0 defaults to one
// second.
func (w *Watcher) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.Rescan()
		}
	}
}
