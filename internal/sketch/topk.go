package sketch

import "slices"

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
// accounting the subtraction in Slack.
func (t *TopK) Add(key uint64, w uint64) {
	if w == 0 {
		return
	}
	t.n += w
	t.counts[key] += w
	if len(t.counts) <= t.k {
		return
	}
	keys := t.sortedKeys()
	min := t.counts[keys[0]]
	for _, k := range keys[1:] {
		if c := t.counts[k]; c < min {
			min = c
		}
	}
	for _, k := range keys {
		if c := t.counts[k]; c <= min {
			delete(t.counts, k)
		} else {
			t.counts[k] = c - min
		}
	}
	t.slack += min
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
		e := Entry{Key: k, Count: c}
		if len(top) == n {
			if compareEntries(e, top[n-1]) >= 0 {
				continue
			}
			top = top[:n-1]
		}
		at, _ := slices.BinarySearchFunc(top, e, compareEntries)
		top = slices.Insert(top, at, e)
	}
	return top
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

func (t *TopK) cloneSketch() Sketch {
	out := NewTopK(t.k)
	out.n = t.n
	out.slack = t.slack
	for _, k := range t.sortedKeys() {
		out.counts[k] = t.counts[k]
	}
	return out
}
