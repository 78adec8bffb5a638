// Package parallel provides the bounded worker pool used to fan
// independent virtual-platform simulations out across host cores.
//
// Every simulated run (harness.Run) builds its own vm.Kernel, whose
// token-handoff scheduler is deterministic regardless of host
// scheduling. Runs are independent, so this pool fans them out: at most
// Workers() goroutines drain an index queue, and results are collected
// into a slice ordered by input index. The output of Map is
// byte-identical to the sequential loop it replaces. The one concurrency
// inside a run is the session's own: in accounting mode a simulated run
// hands its server handlers to one helper goroutine (pvm.StartAhead),
// which changes no result either.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var defaultWorkers atomic.Int64

// Workers reports the worker count used by Map when no explicit count
// is given. It defaults to runtime.GOMAXPROCS(0).
func Workers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the default worker count (n <= 0 restores the
// GOMAXPROCS default). It is what the -jobs flags of the cmd/ binaries
// call.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Map applies f to every item on the default worker pool and returns
// the results in input order. See MapN.
func Map[T, R any](items []T, f func(i int, item T) (R, error)) ([]R, error) {
	return MapN(0, items, f)
}

// MapN applies f to every item using at most workers goroutines
// (workers <= 0 means Workers()) and returns the results in input
// order. f must be safe to call concurrently; with workers == 1 the
// items run sequentially on the calling goroutine.
//
// If any call fails, MapN returns a nil slice and the error from the
// lowest-indexed failure it observed. A failure stops the pool from
// starting new items, so — unlike the success path, which is fully
// deterministic — later items may or may not have run.
func MapN[T, R any](workers int, items []T, f func(i int, item T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = Workers()
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if workers <= 1 {
		for i, it := range items {
			r, err := f(i, it)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		next    atomic.Int64 // index queue
		stop    atomic.Bool  // set on first failure
		mu      sync.Mutex
		errIdx  = -1
		firstEr error
		wg      sync.WaitGroup
	)
	fail := func(i int, err error) {
		stop.Store(true)
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstEr = i, err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || stop.Load() {
					return
				}
				r, err := f(i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, firstEr
	}
	return out, nil
}
