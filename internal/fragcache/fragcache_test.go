package fragcache

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func frags(parts ...string) [][]byte {
	out := make([][]byte, len(parts))
	for i, p := range parts {
		out[i] = []byte(p)
	}
	return out
}

func TestPutGetWriteTo(t *testing.T) {
	c := New(1 << 20)
	e := c.Put(1, frags("<doc>", "<a/>", "</doc>"), Stamp{Epoch: 7})
	if e == nil {
		t.Fatal("Put rejected an in-budget entry")
	}
	got := c.Get(1)
	if got == nil {
		t.Fatal("Get missed a stored entry")
	}
	var b bytes.Buffer
	if _, err := got.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != "<doc><a/></doc>" {
		t.Fatalf("WriteTo = %q", b.String())
	}
	if got.Bytes() != int64(len("<doc><a/></doc>")) {
		t.Fatalf("Bytes = %d", got.Bytes())
	}
	if c.Get(2) != nil {
		t.Fatal("Get hit an absent key")
	}
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	c := New(30)
	c.Put(1, frags(strings.Repeat("a", 10)), Stamp{})
	c.Put(2, frags(strings.Repeat("b", 10)), Stamp{})
	c.Put(3, frags(strings.Repeat("c", 10)), Stamp{})
	if c.Len() != 3 || c.Bytes() != 30 {
		t.Fatalf("Len=%d Bytes=%d, want 3/30", c.Len(), c.Bytes())
	}
	// Touch 1 so 2 becomes LRU, then push it out.
	c.Get(1)
	c.Put(4, frags(strings.Repeat("d", 10)), Stamp{})
	if c.Get(2) != nil {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if c.Get(1) == nil || c.Get(3) == nil || c.Get(4) == nil {
		t.Fatal("recently used entries were evicted")
	}
	if c.Bytes() != 30 {
		t.Fatalf("Bytes = %d after eviction, want 30", c.Bytes())
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	c := New(10)
	if e := c.Put(1, frags(strings.Repeat("x", 11)), Stamp{}); e != nil {
		t.Fatal("entry larger than the whole budget was cached")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("Len=%d Bytes=%d after rejection, want 0/0", c.Len(), c.Bytes())
	}
}

func TestInvalidateKey(t *testing.T) {
	c := New(0)
	c.Put(1, frags("a"), Stamp{})
	c.Invalidate(1)
	if c.Get(1) != nil || c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("Invalidate left state behind")
	}
	c.Invalidate(99) // absent key: no-op
}

func TestReplaceSameKey(t *testing.T) {
	c := New(0)
	c.Put(1, frags("old"), Stamp{Epoch: 1})
	c.Put(1, frags("newer"), Stamp{Epoch: 2})
	if c.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", c.Len())
	}
	if c.Bytes() != int64(len("newer")) {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), len("newer"))
	}
	if e := c.Get(1); e == nil || e.Stamp.Epoch != 2 {
		t.Fatal("Get does not return the replacing entry")
	}
}

func TestStampFresh(t *testing.T) {
	cases := []struct {
		name     string
		old, cur Stamp
		want     bool
	}{
		{"epoch match", Stamp{Epoch: 3}, Stamp{Epoch: 3}, true},
		{"epoch mismatch", Stamp{Epoch: 3}, Stamp{Epoch: 4}, false},
		{"versions match", Stamp{Epoch: 1, Versions: []int64{5, 7}}, Stamp{Epoch: 9, Versions: []int64{5, 7}}, true},
		{"versions mismatch", Stamp{Versions: []int64{5, 7}}, Stamp{Versions: []int64{5, 8}}, false},
		{"versions vs none falls back to epoch", Stamp{Epoch: 2, Versions: []int64{5}}, Stamp{Epoch: 2}, true},
		{"length mismatch falls back to epoch", Stamp{Epoch: 2, Versions: []int64{5}}, Stamp{Epoch: 3, Versions: []int64{5, 6}}, false},
	}
	for _, tc := range cases {
		if got := tc.old.Fresh(tc.cur); got != tc.want {
			t.Errorf("%s: Fresh = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRecorderSplitsAndTees(t *testing.T) {
	var out bytes.Buffer
	r := NewRecorder(&out)
	r.Write([]byte("<doc>"))
	r.Boundary()
	r.Write([]byte("<a/>"))
	r.Boundary()
	r.Write([]byte("<b/>"))
	r.Write([]byte("</doc>"))
	fr := r.Fragments()
	if out.String() != "<doc><a/><b/></doc>" {
		t.Fatalf("tee output = %q", out.String())
	}
	want := []string{"<doc>", "<a/>", "<b/></doc>"}
	if len(fr) != len(want) {
		t.Fatalf("got %d fragments, want %d", len(fr), len(want))
	}
	for i, w := range want {
		if string(fr[i]) != w {
			t.Fatalf("fragment %d = %q, want %q", i, fr[i], w)
		}
	}
}

func TestRecorderEmptyDocument(t *testing.T) {
	r := NewRecorder(&bytes.Buffer{})
	fr := r.Fragments()
	if len(fr) != 1 || len(fr[0]) != 0 {
		t.Fatalf("empty recorder fragments = %v", fr)
	}
}

// TestStoredAtAndAge: Put stamps the commit instant, so the serve-stale
// path can report an honest document age; replacing an entry re-stamps it.
func TestStoredAtAndAge(t *testing.T) {
	c := New(0)
	before := time.Now()
	e := c.Put(1, frags("doc"), Stamp{})
	if e.StoredAt.Before(before) || e.StoredAt.After(time.Now()) {
		t.Fatalf("StoredAt = %v, want within the Put call", e.StoredAt)
	}
	if age := e.Age(); age < 0 {
		t.Fatalf("Age = %v, want non-negative", age)
	}
	old := e.StoredAt
	time.Sleep(5 * time.Millisecond)
	if e2 := c.Put(1, frags("doc2"), Stamp{}); !e2.StoredAt.After(old) {
		t.Fatalf("replacement StoredAt %v not after original %v", e2.StoredAt, old)
	}
}
