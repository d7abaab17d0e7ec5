package silkroute

import (
	"context"
	"fmt"
	"io"
)

// Backend is a view's evaluation target: a local *DB or a *Remote — one
// endpoint, a replica set, or a shard grid, Dial decides. The interface is
// sealed; it exists so a view registry can bind the same named view to any
// backend shape through one constructor (NewHandle) and one option list.
type Backend interface {
	// parseView compiles src against the backend's schema with the given
	// options. Sealed to *DB and *Remote.
	parseView(src string, opts []Option) (*View, error)
}

func (db *DB) parseView(src string, opts []Option) (*View, error) {
	return ParseView(db, src, opts...)
}

func (r *Remote) parseView(src string, opts []Option) (*View, error) {
	return ParseRemoteView(r, nil, src, opts...)
}

// Handle is one entry of a view registry: a named, compiled RXL view bound
// to its backend, plus the plan strategy it serves by default. Handles are
// what a long-running view service registers and what its HTTP surface
// resolves requests against; they are immutable after construction and
// safe for concurrent Materialize calls.
type Handle struct {
	name     string
	view     *View
	strategy Strategy
}

// NewHandle compiles src against the backend and returns the named handle.
// One option list configures everything: the view (WithWrapper, WithReduce,
// WithParallelism, caches), the default strategy (WithStrategy, default
// Greedy), and — since connection options are ignored here — the same
// slice used to Dial the backend can be passed through unchanged.
func NewHandle(name string, b Backend, src string, opts ...Option) (*Handle, error) {
	if name == "" {
		return nil, fmt.Errorf("silkroute: NewHandle: empty view name")
	}
	v, err := b.parseView(src, opts)
	if err != nil {
		return nil, fmt.Errorf("silkroute: view %s: %w", name, err)
	}
	return &Handle{name: name, view: v, strategy: buildConfig(opts).strategy}, nil
}

// Name returns the handle's registry name.
func (h *Handle) Name() string { return h.name }

// View returns the compiled view.
func (h *Handle) View() *View { return h.view }

// Strategy returns the default plan strategy the handle serves.
func (h *Handle) Strategy() Strategy { return h.strategy }

// Materialize evaluates the view with the handle's default strategy,
// writing the XML document to w. Use View().Materialize to override the
// strategy per call.
func (h *Handle) Materialize(ctx context.Context, w io.Writer) (*Report, error) {
	return h.view.Materialize(ctx, w, h.strategy)
}
