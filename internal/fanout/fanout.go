// Package fanout runs n independent, indexed calls on a bounded number of
// goroutines. It is the one worker pool of the module: plan execution,
// the greedy search, shard scatter and the experiment sweep all go
// through Each, so none of them keeps a serial twin.
package fanout

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls fn(i) for every i in [0, n) on at most workers goroutines and
// returns once every call has returned. workers <= 0 means GOMAXPROCS.
// With one worker the calls run in index order on the caller's goroutine.
//
// Worker g makes call g first and then takes the lowest index no worker
// has taken, so with workers >= n every call starts at once: a call that
// blocks, such as a remote open waiting on its server, never holds back
// another. fn must be safe to call from several goroutines; results go
// through per-index slots the caller owns.
func Each(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(i int) {
			defer wg.Done()
			for ; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}(g)
	}
	wg.Wait()
}
