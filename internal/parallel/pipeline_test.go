package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// pipeItem is the slot type of the Pipeline tests: the item's sequence
// number and what fn made of it.
type pipeItem struct {
	seq, out int
}

// pipeRun drives Pipeline over n items at the given worker count. The
// stage named by failAt[stage] fails at each listed item; the run
// returns the committed outputs and the error.
func pipeRun(t *testing.T, n, workers int, failAt map[string][]int) ([]int, error) {
	t.Helper()
	fails := func(stage string, seq int) error {
		if slices.Contains(failAt[stage], seq) {
			return fmt.Errorf("%s failed at item %d", stage, seq)
		}
		return nil
	}
	next := 0
	var got []int
	err := Pipeline(workers,
		func(s *pipeItem) (bool, error) {
			if next == n {
				return false, nil
			}
			s.seq = next
			next++
			return true, fails("produce", s.seq)
		},
		func(s *pipeItem) error {
			if s.seq%3 == 0 {
				runtime.Gosched() // let later items overtake this one
			}
			s.out = s.seq*s.seq + 1
			return fails("fn", s.seq)
		},
		func(s *pipeItem) error {
			if err := fails("commit", s.seq); err != nil {
				return err
			}
			got = append(got, s.out)
			return nil
		})
	return got, err
}

// TestPipelineCommitOrder: commit sees every item exactly once, in the
// order produce made them, at every worker count, and workers=1 gives
// the same results as workers=N.
func TestPipelineCommitOrder(t *testing.T) {
	want, err := pipeRun(t, 200, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want {
		if v != i*i+1 {
			t.Fatalf("workers=1: commit %d got %d", i, v)
		}
	}
	for _, workers := range []int{2, 3, 8, 0} {
		for trial := 0; trial < 5; trial++ {
			got, err := pipeRun(t, 200, workers, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d: commits differ from workers=1", workers)
			}
		}
	}
	if got, err := pipeRun(t, 0, 4, nil); err != nil || len(got) != 0 {
		t.Fatalf("empty input: got %v, err %v", got, err)
	}
}

// TestPipelineWindowBound: at no point are more than
// windowPerWorker×workers items produced but not yet committed (one at
// a single worker, where the stages run inline).
func TestPipelineWindowBound(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		var claimed, committed, peak atomic.Int64
		limit := int64(windowPerWorker * workers)
		if workers == 1 {
			limit = 1
		}
		n := 0
		err := Pipeline(workers,
			func(s *pipeItem) (bool, error) {
				if n == 300 {
					return false, nil
				}
				n++
				inflight := claimed.Add(1) - committed.Load()
				if inflight > limit {
					t.Errorf("workers=%d: %d items in flight, window %d", workers, inflight, limit)
				}
				if inflight > peak.Load() {
					peak.Store(inflight)
				}
				return true, nil
			},
			func(s *pipeItem) error {
				time.Sleep(20 * time.Microsecond)
				return nil
			},
			func(s *pipeItem) error {
				committed.Add(1)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if committed.Load() != 300 {
			t.Fatalf("workers=%d: %d commits", workers, committed.Load())
		}
		if workers > 1 && peak.Load() < 2 {
			t.Errorf("workers=%d: never more than one item in flight", workers)
		}
	}
}

// TestPipelineFirstErrorWins: whichever stage fails, at whatever item,
// the error returned is the first failing item's, exactly as a serial
// run returns it, and every item before it is committed. Each case also
// plants later failures in the other stages, which must lose.
func TestPipelineFirstErrorWins(t *testing.T) {
	const n = 24
	stages := []string{"produce", "fn", "commit"}
	for si, stage := range stages {
		for at := 0; at < n; at++ {
			failAt := map[string][]int{stage: {at}}
			for k, other := range stages {
				if k != si {
					failAt[other] = append(failAt[other], at+1+k)
				}
			}
			want := fmt.Sprintf("%s failed at item %d", stage, at)
			for _, workers := range []int{1, 2, 4, 9} {
				got, err := pipeRun(t, n, workers, failAt)
				if err == nil || err.Error() != want {
					t.Fatalf("%s at %d, workers=%d: err = %v, want %q", stage, at, workers, err, want)
				}
				if len(got) != at {
					t.Fatalf("%s at %d, workers=%d: %d items committed, want %d", stage, at, workers, len(got), at)
				}
			}
		}
	}
}

// TestPipelineNoGoroutineOutlivesCall: every goroutine Pipeline starts
// has exited when it returns, on success and on every error path.
func TestPipelineNoGoroutineOutlivesCall(t *testing.T) {
	before := runtime.NumGoroutine()
	cases := []map[string][]int{nil, {"produce": {5}}, {"fn": {0}}, {"fn": {7}}, {"commit": {3}}}
	for _, failAt := range cases {
		for _, workers := range []int{2, 8} {
			pipeRun(t, 40, workers, failAt) //nolint:errcheck // only the goroutine count matters
		}
	}
	// A goroutine that has run its deferred Done may not have exited yet.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after", before, after)
	}
}

// TestPipelineErrorIsNotWrapped: the error a stage returns reaches the
// caller unchanged.
func TestPipelineErrorIsNotWrapped(t *testing.T) {
	sentinel := errors.New("disk full")
	for _, workers := range []int{1, 3} {
		err := Pipeline(workers,
			func(s *pipeItem) (bool, error) { return true, nil },
			func(s *pipeItem) error { return nil },
			func(s *pipeItem) error { return sentinel })
		if err != sentinel {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}
