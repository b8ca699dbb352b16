package evq

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// byAtTie is the oracle's order: a plain sort on (At, Tie).
func byAtTie(a, b Event[int]) int {
	if c := cmp.Compare(a.At, b.At); c != 0 {
		return c
	}
	return cmp.Compare(a.Tie, b.Tie)
}

// checker runs one interleaving of pushes and pops against a sorted
// slice holding the same events.
type checker struct {
	t      *testing.T
	h      Heap[int]
	oracle []Event[int]
	pushed int
}

// push queues an event at at. Ties are distinct but scrambled
// (multiplying by an odd constant is a bijection on uint64), so the
// tie-break, not push order, decides between events sharing an at.
func (c *checker) push(at int64) {
	e := Event[int]{At: at, Tie: uint64(c.pushed) * 0x9E3779B97F4A7C15, P: c.pushed}
	c.pushed++
	c.h.Push(e)
	c.oracle = append(c.oracle, e)
	c.check()
}

func (c *checker) pop() {
	if c.h.Len() == 0 {
		return
	}
	slices.SortFunc(c.oracle, byAtTie)
	want := c.oracle[0]
	c.oracle = c.oracle[1:]
	if top := c.h.Top(); *top != want {
		c.t.Fatalf("Top = %+v, oracle's earliest %+v", *top, want)
	}
	if got := c.h.Pop(); got != want {
		c.t.Fatalf("Pop = %+v, oracle's earliest %+v", got, want)
	}
	c.check()
}

func (c *checker) check() {
	if c.h.Len() != len(c.oracle) {
		c.t.Fatalf("Len = %d, oracle holds %d", c.h.Len(), len(c.oracle))
	}
	if (c.h.Top() == nil) != (len(c.oracle) == 0) {
		c.t.Fatalf("Top = %v with %d events pending", c.h.Top(), len(c.oracle))
	}
}

// drain pops everything left, so every pushed event is checked.
func (c *checker) drain() {
	for c.h.Len() > 0 {
		c.pop()
	}
	c.check()
}

// TestHeapMatchesSort: random interleavings of pushes and pops, over
// time ranges from "every event ties" to "few ties", pop exactly what a
// sort on (At, Tie) puts first, with its payload.
func TestHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		c := &checker{t: t}
		span := int64(1) << rng.Intn(12)
		pushBias := 0.3 + 0.5*rng.Float64()
		for op := 0; op < 1+rng.Intn(400); op++ {
			if rng.Float64() < pushBias {
				c.push(rng.Int63n(span) - span/2)
			} else {
				c.pop()
			}
		}
		c.drain()
	}
}

// FuzzHeap decodes each byte as an operation: an even byte pushes an
// event at b>>5 (eight distinct times, so most pushes tie on At and the
// distinct Tie decides), an odd byte pops.
func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 1})
	f.Add([]byte{0xe0, 0xe0, 0x20, 0x20, 1, 0, 1, 1, 1})
	f.Add([]byte{0x40, 0x40, 0x40, 0x40, 0x40, 1, 0x40, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := &checker{t: t}
		for _, b := range ops {
			if b&1 == 0 {
				c.push(int64(b >> 5))
			} else {
				c.pop()
			}
		}
		c.drain()
	})
}
