// Package fragcache is a size-bounded cache of materialized XML fragments.
//
// Level 2 of the middleware's cache (level 1, the plan memo, is one slot
// per view and strategy in the root package): whole materialized documents
// are kept in memory as a sequence of top-level fragments, keyed per view,
// under a byte budget with LRU eviction. Warm requests are served straight
// from memory, byte-identical to a cold run, with zero planning, SQL, or
// tagging work.
//
// Freshness is tracked by a Stamp the caller takes once per request, before
// anything runs: the write versions of the view's base tables when the
// backend is local, the global stats epoch when it is remote (one wire
// round trip). The cache itself knows nothing of writes: every hit is
// checked against the request's stamp, and an entry that fails the check is
// dropped there. Entries are committed only after a fully successful
// materialization and only if the stamp still matches — fail-closed, so a
// killed or resumed stream can never leave a partial fragment cached.
package fragcache

import (
	"io"
	"sync"
	"time"

	"silkroute/internal/obs"
)

// Stamp captures the data freshness observed before a materialization ran.
type Stamp struct {
	// Epoch is the database-wide stats epoch (write counter).
	Epoch int64
	// Versions holds the write versions of the view's base tables, in the
	// view's (sorted) table order. Nil when per-table versions are
	// unavailable (remote backends), in which case Epoch alone decides
	// freshness.
	Versions []int64
}

// Fresh reports whether data stamped with s is still current given cur, a
// stamp taken now over the same tables. Per-table versions are compared when
// both sides carry them — a write to an unrelated table then leaves the
// entry fresh; otherwise the coarser epoch must match exactly.
func (s Stamp) Fresh(cur Stamp) bool {
	if s.Versions != nil && cur.Versions != nil && len(s.Versions) == len(cur.Versions) {
		for i, v := range s.Versions {
			if v != cur.Versions[i] {
				return false
			}
		}
		return true
	}
	return s.Epoch == cur.Epoch
}

// Entry is one cached materialization: the document split at top-level
// element boundaries and the freshness stamp it was built under.
type Entry struct {
	// Fragments is the document in order: fragment i holds the bytes from
	// the start of top-level element i (or the document prologue/root-open
	// for i=0) up to the next top-level boundary.
	Fragments [][]byte
	// Stamp is the freshness observed before the producing query ran.
	Stamp Stamp
	// StoredAt is when the entry was committed to the cache. The serve-stale
	// degradation path reports it to clients as the staleness age, so a
	// consumer of a degraded response knows how old its document is.
	StoredAt time.Time

	bytes      int64
	key        uint64
	prev, next *Entry // LRU list; most-recent at head
}

// Age returns how long ago the entry was committed.
func (e *Entry) Age() time.Duration { return time.Since(e.StoredAt) }

// Bytes returns the entry's total payload size.
func (e *Entry) Bytes() int64 { return e.bytes }

// WriteTo streams the cached document to w, reproducing the original output
// byte for byte.
func (e *Entry) WriteTo(w io.Writer) (int64, error) {
	var n int64
	for _, f := range e.Fragments {
		m, err := w.Write(f)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Cache is a concurrency-safe LRU fragment cache under a byte budget.
type Cache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[uint64]*Entry
	head    *Entry // most recently used
	tail    *Entry // least recently used
}

// New returns an empty cache with the given byte budget. A non-positive
// budget means unbounded.
func New(maxBytes int64) *Cache {
	return &Cache{max: maxBytes, entries: make(map[uint64]*Entry)}
}

// Get returns the entry cached under key, or nil, marking it most recently
// used. It does NOT count an obs hit/miss: the caller must still validate
// the entry's stamp against current data, and a stale entry served is not a
// hit — the facade counts after that check.
func (c *Cache) Get(key uint64) *Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil
	}
	c.unlink(e)
	c.pushFront(e)
	return e
}

// Put stores fragments under key, replacing any previous entry, and evicts
// least-recently-used entries until the byte budget holds. An entry larger
// than the whole budget is not cached at all. Returns the stored entry, or
// nil when it was rejected.
func (c *Cache) Put(key uint64, fragments [][]byte, stamp Stamp) *Entry {
	var size int64
	for _, f := range fragments {
		size += int64(len(f))
	}
	if c.max > 0 && size > c.max {
		return nil
	}
	e := &Entry{Fragments: fragments, Stamp: stamp, StoredAt: time.Now(), bytes: size, key: key}

	c.mu.Lock()
	if old := c.entries[key]; old != nil {
		c.remove(old)
	}
	var evicted int64
	for c.max > 0 && c.bytes+size > c.max && c.tail != nil {
		c.remove(c.tail)
		evicted++
	}
	c.entries[key] = e
	c.bytes += size
	c.pushFront(e)
	bytes := c.bytes
	c.mu.Unlock()

	if m := obs.M(); m != nil {
		m.Cache.FragmentEvictions.Add(evicted)
		m.Cache.FragmentBytes.Set(bytes)
	}
	return e
}

// Invalidate drops the entry cached under key, if any; the facade calls it
// when a hit fails its stamp check.
func (c *Cache) Invalidate(key uint64) {
	c.mu.Lock()
	e := c.entries[key]
	if e != nil {
		c.remove(e)
	}
	bytes := c.bytes
	c.mu.Unlock()

	if m := obs.M(); m != nil && e != nil {
		m.Cache.FragmentInvalidations.Add(1)
		m.Cache.FragmentBytes.Set(bytes)
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total cached payload size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// remove unlinks e from the LRU list and the entry map, and subtracts its
// size. Caller holds c.mu.
func (c *Cache) remove(e *Entry) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.bytes -= e.bytes
}

func (c *Cache) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *Entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Recorder tees a materialization into fragment buffers while passing every
// byte through to the underlying writer unchanged — cached output is
// byte-identical to the live stream by construction. The tagger finds its
// Boundary method on the writer it is given and calls it to split
// fragments.
type Recorder struct {
	w     io.Writer
	frags [][]byte
	cur   []byte
}

// NewRecorder wraps w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w}
}

// Write implements io.Writer: forward to the wrapped writer and append to
// the current fragment.
func (r *Recorder) Write(p []byte) (int, error) {
	n, err := r.w.Write(p)
	r.cur = append(r.cur, p[:n]...)
	return n, err
}

// Boundary closes the current fragment; bytes written next start a new one.
// The tagger calls it as each top-level element opens, so fragment 0 is the
// document prologue plus the root-element open tag.
func (r *Recorder) Boundary() {
	r.frags = append(r.frags, r.cur)
	r.cur = nil
}

// Fragments closes out the trailing fragment and returns the full sequence.
// The recorder must not be written to afterwards.
func (r *Recorder) Fragments() [][]byte {
	if len(r.cur) > 0 || len(r.frags) == 0 {
		r.frags = append(r.frags, r.cur)
		r.cur = nil
	}
	return r.frags
}
