package experiments

import (
	"runtime"
	"sync"
)

// This file is the sweep fan-out layer: every experiment's grid of
// independent seeded runs (schemes × loads × reps, engines × schemes, ...)
// is built as a flat slice of cells first, then executed on a fixed pool
// of worker goroutines. Results come back indexed by submission order, so
// every reduction over them — rep pooling, table rows, winner ratios — is
// byte-identical to the sequential output for a fixed seed, regardless of
// worker count or completion order.

// Workers resolves a requested worker count: n < 1 means one worker per
// CPU. The count never exceeds jobs, so small grids don't spawn idle
// goroutines.
func Workers(n, jobs int) int {
	if n < 1 {
		n = runtime.NumCPU()
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n) on Workers(w, n) goroutines.
// Indices are handed out in submission order; w = 1 degenerates to a plain
// sequential loop on the caller's goroutine. A panic in fn stops the
// hand-out of further indices (in-flight calls still finish) and is
// re-raised on the caller's goroutine once all workers have drained.
func ForEach(n, w int, fn func(i int)) {
	w = Workers(w, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	var (
		mu       sync.Mutex
		next     int
		panicked any
		wg       sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if panicked != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				if pv := call(fn, i); pv != nil {
					mu.Lock()
					if panicked == nil {
						panicked = pv
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// call runs fn(i), converting a panic into a returned value so the pool
// can re-raise it on the caller's goroutine instead of crashing a worker.
func call(fn func(int), i int) (panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	fn(i)
	return nil
}

// Fan builds out[i] = fn(i) for every i in [0, n) on Workers(w, n)
// goroutines and returns the slice in submission order. done, when
// non-nil, observes each completed cell as it finishes (completion order)
// serialized under the pool's mutex — progress callbacks and other shared
// mutable state need no further locking.
func Fan[T any](n, w int, fn func(i int) T, done func(i int, v T)) []T {
	out := make([]T, n)
	var mu sync.Mutex
	ForEach(n, w, func(i int) {
		v := fn(i)
		out[i] = v
		if done != nil {
			mu.Lock()
			done(i, v)
			mu.Unlock()
		}
	})
	return out
}

// RunAll executes every RunCfg on Workers(w, len(cfgs)) goroutines and
// returns the results indexed exactly like cfgs. done, when non-nil, is
// invoked once per completed run, serialized (see Fan).
func RunAll(cfgs []RunCfg, w int, done func(i int, res *RunResult)) []*RunResult {
	return Fan(len(cfgs), w, func(i int) *RunResult { return Run(cfgs[i]) }, done)
}
