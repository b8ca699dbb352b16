// Package parallel is the deterministic fan-out primitive the pipeline
// builders share: an index-ordered map over a bounded worker pool.
//
// The repository's reproducibility contract says the same configuration
// must regenerate every table byte-for-byte. That rules out any
// concurrency whose observable outcome depends on goroutine scheduling.
// The helpers here keep the contract by construction:
//
//   - work is claimed by index, results land in a slice slot owned by
//     that index, and the caller merges in index order;
//   - the reported error is always the lowest-index failure, which is
//     scheduling-independent (indices are claimed in ascending order, so
//     every index below a claimed one runs to completion);
//   - the worker count only bounds concurrency — it never changes what is
//     computed, so workers=1 and workers=N produce identical results.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count knob: values <= 0 select one worker
// per available CPU.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// MapErr computes fn(0) … fn(n-1) on up to workers goroutines (per
// Workers) and returns the results in index order. Every fn call receives
// a distinct index, so fn may write only to state it derives from the
// index. On failure MapErr returns the error of the lowest failing index
// and no results; indices after the first observed failure may be
// skipped, but everything before the lowest failing index always runs.
func MapErr[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	return MapErrOrdered(n, workers, fn, nil)
}

// Map is MapErr for infallible stages.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out, _ := MapErr(n, workers, func(i int) (T, error) { return fn(i), nil })
	return out
}

// MapErrOrdered is MapErr with a serialized completion callback: commit is
// invoked exactly once per successful index, in strictly ascending index
// order, as soon as every lower index has been computed and committed. The
// committed indices therefore always form a contiguous prefix 0..k-1 —
// the property crash-safe journals need so that whatever was committed
// before a crash is a valid resume point regardless of worker count.
//
// A commit error stops further commits and is reported like a work error
// at that index; computed-but-uncommitted results are discarded with it.
// commit runs on whichever worker goroutine completed the gating index,
// never concurrently with itself; a nil commit makes MapErrOrdered
// exactly MapErr.
func MapErrOrdered[T any](n, workers int, fn func(i int) (T, error), commit func(i int, v T) error) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers = min(Workers(workers), n)
	out := make([]T, n)
	if workers == 1 {
		for i := range out {
			var err error
			if out[i], err = fn(i); err != nil {
				return nil, err
			}
			if commit != nil {
				if err := commit(i, out[i]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}
	var (
		errs       = make([]error, n)
		next       atomic.Int64
		failed     atomic.Bool
		wg         sync.WaitGroup
		mu         sync.Mutex
		ready      = make([]bool, n)
		nextCommit int
	)
	// drain advances the contiguous committed prefix; called after result i
	// lands. Serialized by mu, so commit never runs concurrently.
	drain := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		ready[i] = true
		for nextCommit < n && ready[nextCommit] {
			if errs[nextCommit] != nil {
				return // prefix ends at the first failed unit
			}
			if err := commit(nextCommit, out[nextCommit]); err != nil {
				errs[nextCommit] = err
				failed.Store(true)
				return
			}
			nextCommit++
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// The stop flag is checked before an index is claimed, never
			// after: a claimed index always runs, and indices are claimed
			// in ascending order, so every index below any failure runs
			// and the lowest failing index is the one reported.
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
				if errs[i] != nil {
					failed.Store(true)
				}
				if commit != nil {
					drain(i)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
