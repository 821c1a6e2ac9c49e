// Package par provides the deterministic bounded worker pool shared by
// the parallel experiment harnesses and the recovery supervisor. The
// contract callers rely on: fn(i) runs exactly once per index for
// error-free runs, indices are claimed in increasing order, and the
// error returned is the one produced by the lowest failing index —
// independent of the worker count — so parallel runs report the same
// failure a serial loop would.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a worker-count knob to an effective pool size: 0 means the
// hardware parallelism actually usable (NumCPU capped by GOMAXPROCS), and
// negative values mean 1.
func Resolve(workers int) int {
	if workers < 0 {
		return 1
	}
	if workers == 0 {
		workers = runtime.NumCPU()
		if mp := runtime.GOMAXPROCS(0); mp < workers {
			workers = mp
		}
	}
	return workers
}

// ForEach runs fn(0), …, fn(n-1) on a pool of at most workers goroutines
// (0 = Resolve's default) and returns the error of the lowest failing
// index, or nil. After any error, no new indices are started; indices
// already claimed still complete, which is what makes the lowest-failing-
// index guarantee hold regardless of scheduling.
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next     atomic.Int64
		stopped  atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					stopped.Store(true)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
