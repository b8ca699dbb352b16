package sketch

import (
	"bytes"
	"slices"
	"testing"
)

// topkBody is the canonical body encoding of any heavy-hitter form.
func topkBody(h HeavyHitters) []byte { return h.appendBody(nil) }

// TestMergeSortedMatchesMerge: the sorted rebuild of any number of
// partials, pruned or exact, encodes and answers like Merge into a
// fresh TopK.
func TestMergeSortedMatchesMerge(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parts, k, adds int
	}{
		{"one-exact", 1, 1024, 500},
		{"one-pruned", 1, 32, 20000},
		{"many-pruned", 9, 32, 20000},
		{"many-exact", 64, 1024, 5000},
	} {
		parts := make([]*TopK, tc.parts)
		for i := range parts {
			parts[i] = NewTopK(tc.k)
		}
		r := testRNG(uint64(tc.parts*tc.k + tc.adds))
		for i := 0; i < tc.adds; i++ {
			parts[r.next()%uint64(tc.parts)].Add(r.next()%4096, 1+r.next()%3)
		}
		want := NewTopK(tc.k)
		for _, p := range parts {
			if err := want.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		got, err := MergeSorted(parts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(topkBody(got), topkBody(want)) {
			t.Fatalf("%s: sorted rebuild encodes differently from Merge", tc.name)
		}
		if got.N() != want.N() || got.Slack() != want.Slack() {
			t.Fatalf("%s: N, Slack = %d, %d; Merge gives %d, %d", tc.name, got.N(), got.Slack(), want.N(), want.Slack())
		}
		for _, j := range []int{0, 1, 10, topInsertMax + 1, len(want.counts), len(want.counts) + 3} {
			if g, w := got.Top(j), want.Top(j); !slices.Equal(g, w) {
				t.Fatalf("%s: Top(%d) = %v, Merge's summary gives %v", tc.name, j, g, w)
			}
		}
	}
	if _, err := MergeSorted(nil); err != ErrMergeParam {
		t.Errorf("no parts: got %v, want ErrMergeParam", err)
	}
	if _, err := MergeSorted([]*TopK{NewTopK(4), NewTopK(5)}); err != ErrMergeParam {
		t.Errorf("mixed k: got %v, want ErrMergeParam", err)
	}
}

// TestSortedWithMatchesAdds: a chain of With calls, each from the last
// result, equals a TopK fed the same weight-1 adds while none of them
// trims, and never changes a summary it was called on.
func TestSortedWithMatchesAdds(t *testing.T) {
	const k = 4096
	live := NewTopK(k)
	s, err := MergeSorted([]*TopK{NewTopK(k)})
	if err != nil {
		t.Fatal(err)
	}
	r := testRNG(31)
	for round := 0; round < 40; round++ {
		keys := make([]uint64, r.next()%90)
		for i := range keys {
			// Revisit old keys and reach past both ends of the range.
			keys[i] = r.next() % (uint64(round)*50 + 7)
			live.Add(keys[i], 1)
		}
		before := topkBody(s)
		next := s.With(keys)
		if !bytes.Equal(topkBody(s), before) {
			t.Fatalf("round %d: With changed its receiver", round)
		}
		s = next
		if !bytes.Equal(topkBody(s), topkBody(live)) {
			t.Fatalf("round %d: With chain encodes differently from the added TopK", round)
		}
	}
	if live.Slack() != 0 {
		t.Fatal("the adds trimmed: the test left the exact regime")
	}
}

// TestSortedTopKInASet: a set holding the sorted form encodes and
// summarizes like the same set holding the TopK, serves it through
// HeavyHitters but not TopK, and refuses a merge into it.
func TestSortedTopKInASet(t *testing.T) {
	parts := buildPartials(0xC0DE, 5, 8000)
	want := copySet(t, parts[0])
	for _, p := range parts[1:] {
		if err := want.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	tops := make([]*TopK, len(parts))
	for i, p := range parts {
		tops[i] = p.TopK("churn24")
	}
	sorted, err := MergeSorted(tops)
	if err != nil {
		t.Fatal(err)
	}
	got := NewSet()
	for name, sk := range map[string]Sketch{
		"duration": want.Quantile("duration"),
		"churn24":  sorted,
		"pfx64":    want.Card("pfx64"),
	} {
		if err := got.Put(name, sk); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("set with the sorted form encodes differently")
	}
	probs := []float64{0.5, 0.99}
	if g, w := got.Summarize(probs, 7), want.Summarize(probs, 7); !slices.EqualFunc(g, w, func(a, b Summary) bool {
		return a.Name == b.Name && a.Kind == b.Kind && a.N == b.N && a.Slack == b.Slack && slices.Equal(a.Top, b.Top)
	}) {
		t.Fatalf("summaries differ:\n%+v\n%+v", g, w)
	}
	if got.HeavyHitters("churn24") != HeavyHitters(sorted) || got.TopK("churn24") != nil {
		t.Error("a set serves the sorted form through HeavyHitters only")
	}
	if got.HeavyHitters("pfx64") != nil || want.HeavyHitters("churn24") == nil {
		t.Error("HeavyHitters answers by kind")
	}
	if err := got.Merge(want); err != ErrReadOnly {
		t.Errorf("merge into the sorted form: got %v, want ErrReadOnly", err)
	}
}

// TestCardMergeRaised: an accumulator fed only each partial's raised
// words, round after round, holds the registers a full merge of the
// partials gives, and the read leaves no mark behind.
func TestCardMergeRaised(t *testing.T) {
	const p = 8
	parts := make([]*Card, p)
	for i := range parts {
		parts[i] = NewCard(CardP, CardSeed)
	}
	acc := NewCard(CardP, CardSeed)
	r := testRNG(77)
	for round := 0; round < 12; round++ {
		for i := 0; i < 1<<round; i++ {
			parts[r.next()%p].Add(r.next())
		}
		for _, c := range parts {
			if err := acc.MergeRaised(c); err != nil {
				t.Fatal(err)
			}
			if slices.ContainsFunc(c.raised, func(m uint64) bool { return m != 0 }) {
				t.Fatalf("round %d: marks left after MergeRaised", round)
			}
		}
		full := NewCard(CardP, CardSeed)
		for _, c := range parts {
			if err := full.Merge(c); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(acc.reg, full.reg) {
			t.Fatalf("round %d: incremental registers differ from a full merge", round)
		}
	}
	if err := acc.MergeRaised(NewCard(CardP, CardSeed+1)); err != ErrMergeParam {
		t.Errorf("seed mismatch: got %v, want ErrMergeParam", err)
	}
}

// TestTopKDecrementAllocs: a warmed summary's Add that runs a
// Misra-Gries decrement round allocates nothing. The summary is full
// of heavy keys, so each timed Add of a key it does not track runs a
// round, which drops that key and trims every other.
func TestTopKDecrementAllocs(t *testing.T) {
	tk := NewTopK(TopKCap)
	for k := uint64(0); k < TopKCap; k++ {
		tk.Add(k, 1<<20)
	}
	fresh := uint64(TopKCap)
	allocs := testing.AllocsPerRun(1000, func() {
		tk.Add(fresh, 1)
		fresh++
	})
	if rounds := fresh - TopKCap; tk.Slack() != rounds || len(tk.counts) != TopKCap {
		t.Fatalf("%d adds ran %d decrement rounds and left %d keys", rounds, tk.Slack(), len(tk.counts))
	}
	if allocs != 0 {
		t.Errorf("decrementing Add allocates %.1f times per call", allocs)
	}
}
