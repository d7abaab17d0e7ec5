package main

import (
	"bytes"
	"time"
)

// verifier is the writer every document is delivered to. It compares the
// bytes with the golden as they stream in — one memcmp per chunk, cheaper
// than any hash and far cheaper than the request — and notes when the
// first byte arrived. A document is good only if every byte matched and
// the golden was delivered to its end.
type verifier struct {
	golden []byte
	off    int
	bad    bool
	start  time.Time
	first  time.Duration // request start → first byte; 0 until one arrives
}

// reset arms the verifier for one document whose request starts now.
func (v *verifier) reset(golden []byte) {
	*v = verifier{golden: golden, start: time.Now()}
}

func (v *verifier) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if v.first == 0 {
		v.first = time.Since(v.start)
	}
	end := v.off + len(p)
	if end > len(v.golden) || !bytes.Equal(p, v.golden[v.off:end]) {
		v.bad = true
	}
	v.off = end
	return len(p), nil
}

func (v *verifier) ok() bool { return !v.bad && v.off == len(v.golden) }
