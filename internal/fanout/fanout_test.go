package fanout

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachCallsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 64} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 16} {
			calls := make([]atomic.Int32, n)
			Each(n, workers, func(i int) { calls[i].Add(1) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d called %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestEachBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 16} {
		var running, peak atomic.Int32
		Each(64, workers, func(int) {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(100 * time.Microsecond)
			running.Add(-1)
		})
		if p := int(peak.Load()); p > workers {
			t.Errorf("workers=%d: %d calls ran at once", workers, p)
		}
	}
}

func TestEachStartsEveryCallWhenWorkersCoverN(t *testing.T) {
	// Each call waits until all n have started: that returns only if
	// every call runs on its own goroutine at once.
	const n = 8
	var started sync.WaitGroup
	started.Add(n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Each(n, n, func(int) {
			started.Done()
			started.Wait()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls did not all start at once")
	}
}

func TestEachSerialRunsInOrder(t *testing.T) {
	var got []int
	Each(10, 1, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial order %v", got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("serial run made %d calls, want 10", len(got))
	}
}
