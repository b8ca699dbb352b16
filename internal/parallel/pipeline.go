package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// windowPerWorker sizes Pipeline's in-flight window: per worker, one item
// can be in fn while another waits produced (or committed) beside it.
const windowPerWorker = 2

// errPipelineEnd is the producer's end-of-input marker on a slot's
// completion channel; it never reaches a caller.
var errPipelineEnd = errors.New("parallel: end of pipeline input")

// Pipeline runs a bounded, ordered three-stage pipeline. produce fills
// one item at a time on one goroutine and reports false when the input is
// exhausted; fn transforms items on up to workers goroutines (per
// Workers); commit consumes them one at a time, on the caller's
// goroutine, in exactly the order they were produced.
//
// Items live in a ring of slots of type S that the stages reuse: at most
// windowPerWorker×workers items sit between the start of their produce
// and the end of their commit, and the slot an item used is handed to
// produce again only after that item's commit returned. Buffers a stage
// keeps in S are therefore recycled, never reallocated per item.
//
// Errors resolve as a serial run's do: the returned error is that of the
// first item, in production order, whose produce, fn or commit failed.
// Every item before it is committed, nothing after it is, and items after
// it may be skipped. With one worker the stages run inline on the
// caller's goroutine over a single slot. No goroutine outlives the call.
func Pipeline[S any](workers int, produce func(*S) (bool, error), fn, commit func(*S) error) error {
	workers = Workers(workers)
	if workers == 1 {
		var s S
		for {
			ok, err := produce(&s)
			if err != nil || !ok {
				return err
			}
			if err := fn(&s); err != nil {
				return err
			}
			if err := commit(&s); err != nil {
				return err
			}
		}
	}
	w := windowPerWorker * workers
	var (
		slots = make([]S, w)
		// done[k%w] carries item k's fn result (or the producer's error or
		// end marker for position k) to the committer. Item k is produced
		// only after item k-w was committed, so each channel holds at most
		// one value and no send blocks.
		done = make([]chan error, w)
		// inflight holds one token per produced, uncommitted item.
		inflight = make(chan struct{}, w)
		work     = make(chan int, w)
		quit     = make(chan struct{})
		stopped  atomic.Bool
		wg       sync.WaitGroup
	)
	for i := range done {
		done[i] = make(chan error, 1)
	}
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(work)
		for k := 0; !stopped.Load(); k++ {
			select {
			case inflight <- struct{}{}:
			case <-quit:
				return
			}
			ok, err := produce(&slots[k%w])
			if err == nil && !ok {
				err = errPipelineEnd
			}
			if err != nil {
				done[k%w] <- err
				return
			}
			work <- k
		}
	}()
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for k := range work {
				var err error
				if !stopped.Load() {
					err = fn(&slots[k%w])
				}
				done[k%w] <- err
			}
		}()
	}
	var err error
	for k := 0; ; k++ {
		if err = <-done[k%w]; err == nil {
			err = commit(&slots[k%w])
		}
		if err != nil {
			break
		}
		<-inflight
	}
	if err == errPipelineEnd {
		err = nil
	} else {
		stopped.Store(true)
		close(quit)
	}
	wg.Wait()
	return err
}
