// Package evq is the simulators' event queue: a binary min-heap of
// events ordered by virtual time, ties broken by a key the caller picks.
// internal/isp breaks ties by push sequence and the bng engines by dense
// subscriber key. Either way no two pending events tie, so the order is
// total and every correct heap pops the same sequence.
package evq

// Event is one pending action at virtual time At. Tie orders events that
// share an At; P is the caller's payload.
type Event[P any] struct {
	At  int64
	Tie uint64
	P   P
}

// Before reports whether e comes before o: earlier At, then smaller Tie.
// It compares plain fields, with no comparator call in the heap's loops.
func (e *Event[P]) Before(o *Event[P]) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	return e.Tie < o.Tie
}

// Heap is a binary min-heap of events in Before order. The zero value is
// an empty heap. It is not safe for concurrent use.
type Heap[P any] struct {
	ev []Event[P]
}

// Len returns the number of pending events.
func (h *Heap[P]) Len() int { return len(h.ev) }

// Top returns the earliest event, or nil when the heap is empty. The
// pointer is valid until the next Push or Pop.
func (h *Heap[P]) Top() *Event[P] {
	if len(h.ev) == 0 {
		return nil
	}
	return &h.ev[0]
}

// Push adds e.
func (h *Heap[P]) Push(e Event[P]) {
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.Before(&ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
}

// Pop removes and returns the earliest event. It panics on an empty heap.
func (h *Heap[P]) Pop() Event[P] {
	ev := h.ev
	top := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = Event[P]{} // drop the vacated slot's payload
	ev = ev[:n]
	h.ev = ev
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ev[r].Before(&ev[c]) {
			c = r
		}
		if !ev[c].Before(&last) {
			break
		}
		ev[i] = ev[c]
		i = c
	}
	ev[i] = last
	return top
}
