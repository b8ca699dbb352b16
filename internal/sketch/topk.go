package sketch

import (
	"cmp"
	"math"
	"slices"
)

// Entry is one heavy hitter: a key and its estimated count.
type Entry struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
}

// TopK is a weighted Misra-Gries heavy-hitter summary over uint64 keys
// (/24s as netutil.U32 values, /64s as their high-64 prefix bits).
//
// The classic Misra-Gries guarantee holds per partial: a key's true
// weight exceeds its stored estimate by at most Slack() ≤ N/(k+1).
// Merging is the LOSSLESS pointwise union — counts add, slack adds, no
// re-pruning — so merged state is a pure function of the folded
// multiset (byte-identical under any merge permutation or association)
// and the merged slack of partials that partition a stream of total
// weight N is still ≤ N/(k+1) ≤ N/k. The cost of losslessness is that
// a merge of S partials may hold up to S·k entries; pruning happens
// only on subsequent Adds, and the top-j extraction is a query-time
// pure function.
type TopK struct {
	k      int
	n      uint64
	slack  uint64
	counts map[uint64]uint64
}

// NewTopK builds a summary with capacity k. It panics if k < 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("sketch: topk capacity must be >= 1")
	}
	return &TopK{k: k, counts: make(map[uint64]uint64)}
}

// K reports the per-partial capacity.
func (t *TopK) K() int { return t.k }

// Kind reports KindTopK.
func (t *TopK) Kind() Kind { return KindTopK }

// N reports the total weight folded in.
func (t *TopK) N() uint64 { return t.n }

// Slack reports the total Misra-Gries decrement: any key's true weight
// exceeds its Est by at most Slack.
func (t *TopK) Slack() uint64 { return t.slack }

// sortedKeys returns the tracked keys in ascending order, so every
// state walk is independent of map iteration order.
func (t *TopK) sortedKeys() []uint64 {
	keys := make([]uint64, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Add folds weight w for key. When the summary exceeds its capacity it
// runs one Misra-Gries decrement round: subtract the minimum tracked
// count from every entry, dropping the entries that reach zero and
// accounting the subtraction in Slack. The minimum and the subtraction
// are both independent of the order the map is walked in, so the round
// is two passes over the map and sorts nothing.
func (t *TopK) Add(key uint64, w uint64) {
	if w == 0 {
		return
	}
	t.n += w
	t.counts[key] += w
	if len(t.counts) <= t.k {
		return
	}
	m := uint64(math.MaxUint64)
	for _, c := range t.counts {
		m = min(m, c)
	}
	for k, c := range t.counts {
		if c == m {
			delete(t.counts, k)
		} else {
			t.counts[k] = c - m
		}
	}
	t.slack += m
}

// Est returns the stored estimate for key and whether it is tracked.
// The true weight lies in [est, est+Slack]; an untracked key's true
// weight is at most Slack.
func (t *TopK) Est(key uint64) (uint64, bool) {
	c, ok := t.counts[key]
	return c, ok
}

// Top returns the j highest-estimate entries, ordered by count
// descending with ascending-key tie-break (a total order, so the
// answer never depends on map iteration). A small j selects in one pass
// with a bounded insertion list: an entry that does not beat the
// current j-th is dropped after one comparison. A j near the summary's
// size sorts every entry instead.
func (t *TopK) Top(j int) []Entry {
	n := min(max(j, 0), len(t.counts))
	top := make([]Entry, 0, n)
	if n > topInsertMax || n == len(t.counts) {
		for k, c := range t.counts {
			top = append(top, Entry{Key: k, Count: c})
		}
		slices.SortFunc(top, compareEntries)
		return top[:n]
	}
	if n == 0 {
		return top
	}
	for k, c := range t.counts {
		top = keepTop(top, n, Entry{Key: k, Count: c})
	}
	return top
}

// keepTop offers e to top, a list of at most n ≥ 1 entries in
// compareEntries order, and returns the list.
func keepTop(top []Entry, n int, e Entry) []Entry {
	if len(top) == n {
		if compareEntries(e, top[n-1]) >= 0 {
			return top
		}
		top = top[:n-1]
	}
	at, _ := slices.BinarySearchFunc(top, e, compareEntries)
	return slices.Insert(top, at, e)
}

// topInsertMax bounds the j that Top selects by insertion; past it the
// list's shifting costs more than sorting every entry.
const topInsertMax = 64

// compareEntries orders by count descending, key ascending.
func compareEntries(a, b Entry) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	if a.Key != b.Key {
		if a.Key < b.Key {
			return -1
		}
		return 1
	}
	return 0
}

// Merge folds o into t: the lossless union described on the type. Both
// summaries must share k.
func (t *TopK) Merge(o *TopK) error {
	if t.k != o.k {
		return ErrMergeParam
	}
	t.n += o.n
	t.slack += o.slack
	// Additions commute, so o's map order cannot show in t.
	for k, c := range o.counts {
		t.counts[k] += c
	}
	return nil
}

func (t *TopK) mergeSketch(other Sketch) error {
	o, ok := other.(*TopK)
	if !ok {
		return ErrMergeSchema
	}
	return t.Merge(o)
}

// SortedTopK is a read-only heavy-hitter summary: the lossless union
// of TopK partials (what Merge leaves in a fresh TopK), held as its
// entries in ascending key order. That is the order the codec writes
// and the order Top selects from, so it encodes to the bytes and answers
// the queries of a TopK in the same state without building a map.
// Nothing folds into it: With returns a new summary and leaves its
// receiver as it was, so a reader may hold one while the next is built.
// Set.HeavyHitters returns it; Set.TopK, which hands out a summary to
// fold into, does not.
type SortedTopK struct {
	k       int
	n       uint64
	slack   uint64
	entries []Entry // ascending key, every count > 0
}

// MergeSorted returns the lossless union of parts in sorted form: it
// collects every partial's entries, sorts them by key and sums each
// key's run. The parts must be at least one and share k.
func MergeSorted(parts []*TopK) (*SortedTopK, error) {
	if len(parts) == 0 {
		return nil, ErrMergeParam
	}
	s := &SortedTopK{k: parts[0].k}
	size := 0
	for _, p := range parts {
		if p.k != s.k {
			return nil, ErrMergeParam
		}
		s.n += p.n
		s.slack += p.slack
		size += len(p.counts)
	}
	all := make([]Entry, 0, size)
	for _, p := range parts {
		for k, c := range p.counts {
			all = append(all, Entry{Key: k, Count: c})
		}
	}
	slices.SortFunc(all, func(a, b Entry) int { return cmp.Compare(a.Key, b.Key) })
	out := all[:0]
	for _, e := range all {
		if len(out) > 0 && out[len(out)-1].Key == e.Key {
			out[len(out)-1].Count += e.Count
		} else {
			out = append(out, e)
		}
	}
	s.entries = out
	return s, nil
}

// With returns a new summary: s plus weight 1 for each of keys. That is
// the merge of s's partials after each key's Add when no Add runs a
// decrement round. It sorts keys in place and merges them into s's
// entries in one pass.
func (s *SortedTopK) With(keys []uint64) *SortedTopK {
	slices.Sort(keys)
	out := &SortedTopK{k: s.k, n: s.n + uint64(len(keys)), slack: s.slack,
		entries: make([]Entry, 0, len(s.entries)+len(keys))}
	old := s.entries
	for j := 0; j < len(keys); {
		e := Entry{Key: keys[j]}
		for ; j < len(keys) && keys[j] == e.Key; j++ {
			e.Count++
		}
		at, found := slices.BinarySearchFunc(old, e.Key, func(o Entry, key uint64) int { return cmp.Compare(o.Key, key) })
		out.entries = append(out.entries, old[:at]...)
		if found {
			e.Count += old[at].Count
			at++
		}
		out.entries = append(out.entries, e)
		old = old[at:]
	}
	out.entries = append(out.entries, old...)
	return out
}

// Kind reports KindTopK.
func (s *SortedTopK) Kind() Kind { return KindTopK }

// N reports the total weight folded in.
func (s *SortedTopK) N() uint64 { return s.n }

// Slack reports the total Misra-Gries decrement of the merged partials.
func (s *SortedTopK) Slack() uint64 { return s.slack }

// Top returns the j highest-estimate entries in TopK.Top's order.
func (s *SortedTopK) Top(j int) []Entry {
	n := min(max(j, 0), len(s.entries))
	if n > topInsertMax || n == len(s.entries) {
		top := slices.Clone(s.entries)
		slices.SortFunc(top, compareEntries)
		return top[:n]
	}
	top := make([]Entry, 0, n)
	if n == 0 {
		return top
	}
	for _, e := range s.entries {
		top = keepTop(top, n, e)
	}
	return top
}

func (s *SortedTopK) mergeSketch(Sketch) error { return ErrReadOnly }
