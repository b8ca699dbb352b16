package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Error("non-positive knob must yield at least one worker")
	}
	if Workers(5) != 5 {
		t.Errorf("Workers(5) = %d", Workers(5))
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(100, workers, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapErrEmptyAndSingle(t *testing.T) {
	if out, err := MapErr(0, 4, func(int) (int, error) { return 0, nil }); err != nil || out != nil {
		t.Errorf("n=0: out=%v err=%v", out, err)
	}
	out, err := MapErr(1, 8, func(i int) (string, error) { return "only", nil })
	if err != nil || len(out) != 1 || out[0] != "only" {
		t.Errorf("n=1: out=%v err=%v", out, err)
	}
}

// TestMapErrLowestIndexError: the reported error must be the lowest
// failing index no matter how the schedule interleaves.
func TestMapErrLowestIndexError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 3, 16} {
		for trial := 0; trial < 20; trial++ {
			var ran [50]atomic.Bool
			_, err := MapErr(50, workers, func(i int) (int, error) {
				ran[i].Store(true)
				if i == 13 || i == 31 {
					return 0, fmt.Errorf("index %d: %w", i, sentinel)
				}
				return i, nil
			})
			if err == nil || !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: err = %v", workers, err)
			}
			if got := err.Error(); got != "index 13: boom" {
				t.Fatalf("workers=%d trial %d: non-deterministic error %q", workers, trial, got)
			}
			for i := 0; i < 13; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d trial %d: index %d below the lowest failure never ran", workers, trial, i)
				}
			}
		}
	}
}

// TestMapErrRunsEveryIndexOnSuccess: each index is computed exactly once.
func TestMapErrRunsEveryIndexOnSuccess(t *testing.T) {
	var mu sync.Mutex
	counts := make([]int, 200)
	_, err := MapErr(200, 8, func(i int) (struct{}, error) {
		mu.Lock()
		counts[i]++
		mu.Unlock()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

// TestMapErrActuallyConcurrent: with enough workers, at least two calls
// overlap (a rendezvous of two goroutines deadlocks under workers=1, so
// use a generous pool and a barrier sized to it).
func TestMapErrActuallyConcurrent(t *testing.T) {
	const workers = 4
	barrier := make(chan struct{}, workers)
	ready := make(chan struct{})
	var once sync.Once
	_, err := MapErr(workers, workers, func(i int) (int, error) {
		barrier <- struct{}{}
		if len(barrier) >= 2 {
			once.Do(func() { close(ready) })
		}
		<-ready
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapErrOrderedContiguousPrefix: commits must arrive in strictly
// ascending order with no gaps, at every worker count.
func TestMapErrOrderedContiguousPrefix(t *testing.T) {
	for _, workers := range []int{1, 2, 5, 16} {
		var committed []int
		out, err := MapErrOrdered(60, workers,
			func(i int) (int, error) { return i * 3, nil },
			func(i int, v int) error {
				if v != i*3 {
					t.Fatalf("commit(%d) got value %d", i, v)
				}
				committed = append(committed, i) // serialized by contract
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(out) != 60 || len(committed) != 60 {
			t.Fatalf("workers=%d: %d results, %d commits", workers, len(out), len(committed))
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order %v", workers, committed)
			}
		}
	}
}

// TestMapErrOrderedStopsAtFailure: a failed unit ends the committed
// prefix; nothing at or after the lowest failure is ever committed.
func TestMapErrOrderedStopsAtFailure(t *testing.T) {
	sentinel := errors.New("unit failed")
	for _, workers := range []int{1, 4, 16} {
		for trial := 0; trial < 10; trial++ {
			var mu sync.Mutex
			var committed []int
			_, err := MapErrOrdered(40, workers,
				func(i int) (int, error) {
					if i == 17 {
						return 0, sentinel
					}
					return i, nil
				},
				func(i int, v int) error {
					mu.Lock()
					committed = append(committed, i)
					mu.Unlock()
					return nil
				})
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: err = %v", workers, err)
			}
			for _, c := range committed {
				if c >= 17 {
					t.Fatalf("workers=%d: committed index %d past the failure", workers, c)
				}
			}
			mu.Lock()
			for j, c := range committed {
				if c != j {
					t.Fatalf("workers=%d: commit order %v", workers, committed)
				}
			}
			mu.Unlock()
		}
	}
}

// TestMapErrOrderedCommitError: a commit failure is reported like a work
// failure at that index and halts further commits.
func TestMapErrOrderedCommitError(t *testing.T) {
	sentinel := errors.New("journal full")
	for _, workers := range []int{1, 8} {
		var committed []int
		_, err := MapErrOrdered(20, workers,
			func(i int) (int, error) { return i, nil },
			func(i int, v int) error {
				if i == 5 {
					return sentinel
				}
				committed = append(committed, i)
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if len(committed) != 5 {
			t.Fatalf("workers=%d: committed %v", workers, committed)
		}
	}
}

func TestMapErrOrderedNilCommitAndEmpty(t *testing.T) {
	out, err := MapErrOrdered(3, 2, func(i int) (int, error) { return i, nil }, nil)
	if err != nil || len(out) != 3 {
		t.Fatalf("nil commit: out=%v err=%v", out, err)
	}
	out, err = MapErrOrdered(0, 2, func(i int) (int, error) { return i, nil },
		func(int, int) error { t.Fatal("commit on empty input"); return nil })
	if err != nil || out != nil {
		t.Fatalf("n=0: out=%v err=%v", out, err)
	}
}
