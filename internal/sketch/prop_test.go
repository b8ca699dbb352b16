package sketch

import (
	"bytes"
	"math/rand"
	"testing"
)

// buildSetK returns the canonical three-sketch schema used across the
// property tests, with the given heavy-hitter capacity.
func buildSetK(k int) *Set {
	s := NewSet()
	if err := s.Put("duration", NewQuantile(0.01)); err != nil {
		panic(err)
	}
	if err := s.Put("churn24", NewTopK(k)); err != nil {
		panic(err)
	}
	if err := s.Put("pfx64", NewCard(10, 42)); err != nil {
		panic(err)
	}
	return s
}

// buildSet uses a small capacity so the Misra-Gries summary is deep in
// its pruning regime — the hardest case for merge invariance.
func buildSet() *Set { return buildSetK(32) }

// foldRecord sends one synthetic record into a set: a duration, a
// churn key, a prefix.
func foldRecord(s *Set, r *testRNG) {
	d := float64(1 + r.next()%100000)
	s.Quantile("duration").Add(d)
	s.TopK("churn24").Add(r.next()%512, 1+r.next()%3)
	s.Card("pfx64").Add(r.next() % 20000)
}

// buildPartials deterministically splits a seeded stream over p
// partial sets (fixed assignment, independent of visit order).
func buildPartials(seed uint64, p, records int) []*Set {
	return buildPartialsK(seed, p, records, 32)
}

func buildPartialsK(seed uint64, p, records, k int) []*Set {
	parts := make([]*Set, p)
	for i := range parts {
		parts[i] = buildSetK(k)
	}
	r := testRNG(seed)
	for i := 0; i < records; i++ {
		foldRecord(parts[mix64(uint64(i)+seed)%uint64(p)], &r)
	}
	return parts
}

// copySet copies s through the codec.
func copySet(t testing.TB, s *Set) *Set {
	t.Helper()
	c, err := DecodeSet(s.Encode())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// mergeInOrder left-folds the partials in the given visiting order.
func mergeInOrder(parts []*Set, order []int, t *testing.T) *Set {
	t.Helper()
	acc := copySet(t, parts[order[0]])
	for _, i := range order[1:] {
		if err := acc.Merge(parts[i]); err != nil {
			t.Fatalf("merge: %v", err)
		}
	}
	return acc
}

// TestMergePermutationInvariant proves merged bytes are identical
// under random permutations of the partial sketches.
func TestMergePermutationInvariant(t *testing.T) {
	const p = 9
	parts := buildPartials(0xABCD, p, 20000)
	base := make([]int, p)
	for i := range base {
		base[i] = i
	}
	want := mergeInOrder(parts, base, t).Encode()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		order := rng.Perm(p)
		got := mergeInOrder(parts, order, t).Encode()
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d order %v: merged bytes differ", trial, order)
		}
	}
}

// TestMergeAssociative proves left fold, right fold, and balanced-tree
// association of the same partials produce identical bytes.
func TestMergeAssociative(t *testing.T) {
	const p = 8
	parts := buildPartials(0xFEED, p, 16000)

	left := copySet(t, parts[0])
	for i := 1; i < p; i++ {
		if err := left.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}

	right := copySet(t, parts[p-1])
	for i := p - 2; i >= 0; i-- {
		tmp := copySet(t, parts[i])
		if err := tmp.Merge(right); err != nil {
			t.Fatal(err)
		}
		right = tmp
	}

	var tree func(lo, hi int) *Set
	tree = func(lo, hi int) *Set {
		if hi-lo == 1 {
			return copySet(t, parts[lo])
		}
		mid := (lo + hi) / 2
		l, r := tree(lo, mid), tree(mid, hi)
		if err := l.Merge(r); err != nil {
			t.Fatal(err)
		}
		return l
	}
	balanced := tree(0, p)

	lb, rb, bb := left.Encode(), right.Encode(), balanced.Encode()
	if !bytes.Equal(lb, rb) || !bytes.Equal(lb, bb) {
		t.Fatal("merge association changed the encoded bytes")
	}
}

// TestWorkerCountInvariant proves the same stream split over 1, 4, and
// 16 partials merges to identical bytes — the sketch-level form of the
// repo's -workers contract. The heavy-hitter capacity here exceeds the
// distinct-key count (the exact regime): quantile and cardinality
// state is partition-invariant unconditionally, but a Misra-Gries
// summary is a function of the input multiset only until it prunes —
// which is why the pipelines fix their shard/stripe partition
// independently of -workers and size e2e capacities to the exact
// regime (see DESIGN.md "Online analysis").
func TestWorkerCountInvariant(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		parts := buildPartialsK(0x777, workers, 30000, 1024)
		order := make([]int, workers)
		for i := range order {
			order[i] = i
		}
		got := mergeInOrder(parts, order, t).Encode()
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merged bytes differ from workers=1", workers)
		}
	}
}

// TestWorkerCountBounds proves the weaker unconditional guarantee in
// the pruning regime: at any partition width the merged summary's
// error bounds still hold against the exact stream.
func TestWorkerCountBounds(t *testing.T) {
	const records = 30000
	// Replay the stream exactly to collect ground truth.
	truth := make(map[uint64]uint64)
	var totalW uint64
	r := testRNG(0x777)
	for i := 0; i < records; i++ {
		r.next() // duration draw
		key, w := r.next()%512, 1+r.next()%3
		truth[key] += w
		totalW += w
		r.next() // card draw
	}
	for _, workers := range []int{1, 4, 16} {
		parts := buildPartials(0x777, workers, records)
		order := make([]int, workers)
		for i := range order {
			order[i] = i
		}
		merged := mergeInOrder(parts, order, t).TopK("churn24")
		if merged.N() != totalW {
			t.Fatalf("workers=%d: N=%d want %d", workers, merged.N(), totalW)
		}
		bound := totalW / uint64(merged.K())
		if merged.Slack() > bound {
			t.Fatalf("workers=%d: slack %d > N/k %d", workers, merged.Slack(), bound)
		}
		for key, want := range truth {
			est, _ := merged.Est(key)
			if est > want || want-est > merged.Slack() {
				t.Fatalf("workers=%d key %d: est %d outside [true-slack, true] (true %d, slack %d)",
					workers, key, est, want, merged.Slack())
			}
		}
	}
}

// TestKillResumeRoundtrip proves encode → decode → keep folding gives
// the same final bytes as an uninterrupted run: the property the
// checkpoint journal and daemon snapshot plane rely on.
func TestKillResumeRoundtrip(t *testing.T) {
	straight := buildSet()
	r1 := testRNG(0x1234)
	for i := 0; i < 12000; i++ {
		foldRecord(straight, &r1)
	}

	interrupted := buildSet()
	r2 := testRNG(0x1234)
	for i := 0; i < 5000; i++ {
		foldRecord(interrupted, &r2)
	}
	mid := interrupted.Encode()
	resumed, err := DecodeSet(mid)
	if err != nil {
		t.Fatalf("decode mid-state: %v", err)
	}
	for i := 5000; i < 12000; i++ {
		foldRecord(resumed, &r2)
	}

	if !bytes.Equal(straight.Encode(), resumed.Encode()) {
		t.Fatal("kill/resume changed the final sketch bytes")
	}
}

// TestMergeParamMismatch covers every incompatible-merge rejection.
func TestMergeParamMismatch(t *testing.T) {
	if err := NewQuantile(0.01).Merge(NewQuantile(0.02)); err != ErrMergeParam {
		t.Fatalf("quantile alpha mismatch: got %v", err)
	}
	if err := NewTopK(8).Merge(NewTopK(9)); err != ErrMergeParam {
		t.Fatalf("topk capacity mismatch: got %v", err)
	}
	if err := NewCard(10, 1).Merge(NewCard(10, 2)); err != ErrMergeParam {
		t.Fatalf("card seed mismatch: got %v", err)
	}
	if err := NewCard(10, 1).Merge(NewCard(11, 1)); err != ErrMergeParam {
		t.Fatalf("card precision mismatch: got %v", err)
	}

	a, b := NewSet(), NewSet()
	if err := a.Put("x", NewTopK(4)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != ErrMergeSchema {
		t.Fatalf("length mismatch: got %v", err)
	}
	if err := b.Put("y", NewTopK(4)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(b); err != ErrMergeSchema {
		t.Fatalf("name mismatch: got %v", err)
	}
	c, d := NewSet(), NewSet()
	if err := c.Put("x", NewTopK(4)); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("x", NewCard(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(d); err != ErrMergeSchema {
		t.Fatalf("kind mismatch: got %v", err)
	}
	// Same schema, different parameters.
	e, f := NewSet(), NewSet()
	if err := e.Put("x", NewTopK(4)); err != nil {
		t.Fatal(err)
	}
	if err := f.Put("x", NewTopK(5)); err != nil {
		t.Fatal(err)
	}
	if err := e.Merge(f); err != ErrMergeParam {
		t.Fatalf("param mismatch through set: got %v", err)
	}
	// Cross-kind sketch-level merges through the interface.
	var q Sketch = NewQuantile(0.01)
	if err := q.mergeSketch(NewTopK(4)); err != ErrMergeSchema {
		t.Fatalf("quantile cross-kind: got %v", err)
	}
	var tk Sketch = NewTopK(4)
	if err := tk.mergeSketch(NewCard(10, 1)); err != ErrMergeSchema {
		t.Fatalf("topk cross-kind: got %v", err)
	}
	var ca Sketch = NewCard(10, 1)
	if err := ca.mergeSketch(NewQuantile(0.01)); err != ErrMergeSchema {
		t.Fatalf("card cross-kind: got %v", err)
	}
}
