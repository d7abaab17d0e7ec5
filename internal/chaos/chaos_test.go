package chaos

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("seed=7,cutrow=100,refusedial=5,latency=2ms,latencyevery=10,cutread=4096,cutwrite=8192,maxwrite=3,cutrowmax=20,kills=2")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 7, CutRowAt: 100, RefuseDialEvery: 5,
		Latency: 2 * time.Millisecond, LatencyEvery: 10,
		CutReadAfter: 4096, CutWriteAfter: 8192, MaxWriteChunk: 3,
		CutRowMax: 20, KillTimes: 2,
	}
	if sp != want {
		t.Errorf("ParseSpec = %+v, want %+v", sp, want)
	}
	if sp, err := ParseSpec(""); err != nil || sp != (Spec{}) {
		t.Errorf("empty spec: %+v, %v", sp, err)
	}
	for _, bad := range []string{"cutrow", "bogus=1", "cutrow=xyz"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestWrapDialRefusesEveryNth(t *testing.T) {
	in := New(Spec{RefuseDialEvery: 3})
	dial := in.WrapDial(func(context.Context) (net.Conn, error) {
		c1, c2 := net.Pipe()
		c2.Close()
		return c1, nil
	})
	var refused int
	for i := 0; i < 9; i++ {
		conn, err := dial(context.Background())
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("dial %d: %v", i, err)
			}
			refused++
			continue
		}
		conn.Close()
	}
	if refused != 3 {
		t.Errorf("refused %d of 9 dials, want 3", refused)
	}
}

func TestCutReadAfter(t *testing.T) {
	in := New(Spec{CutReadAfter: 10})
	c1, c2 := net.Pipe()
	defer c2.Close()
	conn := in.WrapConn(c1)
	go func() {
		c2.Write(make([]byte, 64))
	}()
	buf := make([]byte, 64)
	total := 0
	var err error
	for {
		var n int
		n, err = conn.Read(buf)
		total += n
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read error = %v, want ErrInjected", err)
	}
	if total > 10 {
		t.Errorf("read %d bytes through a 10-byte cut", total)
	}
}

func TestMaxWriteChunkPreservesBytes(t *testing.T) {
	in := New(Spec{MaxWriteChunk: 3})
	c1, c2 := net.Pipe()
	conn := in.WrapConn(c1)
	payload := []byte("hello, fragmented world")
	go func() {
		defer conn.Close()
		n, err := conn.Write(payload)
		if err != nil || n != len(payload) {
			t.Errorf("write = %d, %v", n, err)
		}
	}()
	got, err := io.ReadAll(c2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("fragmented write delivered %q, want %q", got, payload)
	}
}

func TestRowFaultDeterministicAndBudgeted(t *testing.T) {
	const sql = "select t.k from T t order by t.k"
	a, b := New(Spec{Seed: 7, CutRowMax: 20}), New(Spec{Seed: 7, CutRowMax: 20})

	cutAt := func(f func(int64) error) int64 {
		if f == nil {
			return -1
		}
		for i := int64(0); i < 1000; i++ {
			if f(i) != nil {
				return i
			}
		}
		return -1
	}

	ra, rb := cutAt(a.RowFault(sql)), cutAt(b.RowFault(sql))
	if ra != rb {
		t.Errorf("same seed, same SQL: cut rows %d vs %d", ra, rb)
	}
	if ra < 1 || ra > 20 {
		t.Errorf("cut row %d outside [1, 20]", ra)
	}
	if other := cutAt(a.RowFault("select t.k from T t where t.k >= 5 order by t.k")); other == -1 {
		t.Error("distinct SQL text did not get its own kill")
	}
	// The per-text kill budget (default 1) is spent: a re-issued identical
	// query passes, which is what guarantees resume forward progress.
	if f := a.RowFault(sql); f != nil {
		t.Error("second arm of the same SQL text should pass (kill budget spent)")
	}
	if a.Kills() != 2 {
		t.Errorf("Kills = %d, want 2", a.Kills())
	}

	// A fixed cut row, with a budget of 2 kills per text.
	c := New(Spec{CutRowAt: 5, KillTimes: 2})
	if got := cutAt(c.RowFault(sql)); got != 5 {
		t.Errorf("CutRowAt: cut at %d, want 5", got)
	}
	if got := cutAt(c.RowFault(sql)); got != 5 {
		t.Errorf("second kill: cut at %d, want 5", got)
	}
	if f := c.RowFault(sql); f != nil {
		t.Error("third arm exceeded KillTimes=2")
	}
}

func TestLatencyEvery(t *testing.T) {
	in := New(Spec{LatencyEvery: 1, Latency: 20 * time.Millisecond})
	c1, c2 := net.Pipe()
	defer c2.Close()
	conn := in.WrapConn(c1)
	go c2.Write([]byte("x"))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("read returned after %v, want >= 20ms of injected latency", d)
	}
}

func TestSpecStringRoundTrips(t *testing.T) {
	specs := []Spec{
		{},
		{Seed: 7, CutRowMax: 10, KillTimes: 1000000},
		{RefuseDialEvery: 3, CutReadAfter: 512, CutWriteAfter: 1024, MaxWriteChunk: 7},
		{Latency: 2 * time.Millisecond, LatencyEvery: 10, CutRowAt: 100},
	}
	for _, sp := range specs {
		got, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", sp.String(), err)
		}
		if got != sp {
			t.Errorf("round trip %q: got %+v, want %+v", sp.String(), got, sp)
		}
	}
	if s := (Spec{}).String(); s != "" {
		t.Errorf("zero Spec renders as %q, want empty", s)
	}
}
