// Package sketch provides deterministic, mergeable streaming summaries
// for the online analysis plane: a rank-error-bounded quantile sketch
// for duration CDFs (the paper's §3.2.1 total-time-fraction curves), a
// Misra-Gries heavy-hitter summary for top-churning /24s and /64s, and
// a seeded-hash HLL/linear-counting cardinality estimator for
// /64-per-/24 counts.
//
// Every sketch in this package is a commutative monoid over its input
// multiset: the in-memory state (and therefore the canonical binary
// encoding) is a function of WHICH records were folded in, never of the
// order they arrived, which worker folded them, or how partial sketches
// were associated during merging. Concretely:
//
//   - Quantile state is a bucket→count map; merge is bucket-wise
//     addition.
//   - TopK merge is a lossless pointwise union (counts add, slack
//     adds); the lossy Misra-Gries decrement runs only on Add, and the
//     top-j extraction is a pure function of state at query time.
//   - Card state is a register-wise max over seeded hashes.
//
// That is what lets per-worker and per-shard partials merge to
// byte-identical state at any -workers or -shards count, in any merge
// permutation or association — the repo-wide determinism contract,
// extended to online estimates and enforced by dynalint (this package
// is in both the Sim and Hot sets: no wall clock, no global randomness,
// no map-order dependence, and no per-record allocations on the Add
// paths).
//
// Sketches travel between processes in a CRC-framed canonical binary
// encoding (see codec.go) so they can ride the checkpoint journal and
// the daemon snapshot plane unchanged.
package sketch

import "errors"

// Kind tags a sketch's concrete type in the Set container and the
// binary codec.
type Kind uint8

const (
	// KindQuantile is a *Quantile duration-CDF sketch.
	KindQuantile Kind = 1
	// KindTopK is a *TopK heavy-hitter summary.
	KindTopK Kind = 2
	// KindCard is a *Card cardinality estimator.
	KindCard Kind = 3
)

// Merge and container errors.
var (
	// ErrMergeParam rejects merging sketches built with different
	// parameters (quantile alpha, topk capacity, card precision/seed).
	ErrMergeParam = errors.New("sketch: merge parameter mismatch")
	// ErrMergeSchema rejects merging Sets whose (name, kind) schemas
	// differ: partial sketches must be built by the same code path.
	ErrMergeSchema = errors.New("sketch: merge schema mismatch")
	// ErrDupName rejects adding two sketches under one name.
	ErrDupName = errors.New("sketch: duplicate name in set")
	// ErrName rejects empty or oversized (>255 byte) sketch names.
	ErrName = errors.New("sketch: name must be 1..255 bytes")
	// ErrReadOnly rejects a merge into a read-only summary (SortedTopK).
	ErrReadOnly = errors.New("sketch: merge into a read-only summary")
)

// mix64 is the SplitMix64 finalizer used for seeded hashing — the same
// avalanche the stripe table and the stream partitioner use, copied
// here so the sketch layer stays dependency-free.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Sketch is the closed interface over the three sketch types. Concrete
// values are always pointers (*Quantile, *TopK, *Card), so holding them
// behind the interface never boxes.
type Sketch interface {
	// Kind reports the concrete sketch type.
	Kind() Kind
	// appendBody appends the canonical body encoding (codec.go).
	appendBody(dst []byte) []byte
	// mergeSketch folds other (same concrete type) into the receiver.
	mergeSketch(other Sketch) error
}

// HeavyHitters is the read side of a heavy-hitter summary: a *TopK or
// a *SortedTopK.
type HeavyHitters interface {
	Sketch
	N() uint64
	Slack() uint64
	Top(j int) []Entry
}

// item is one named sketch in a Set.
type item struct {
	name string
	sk   Sketch
}

// Set is an ordered collection of named sketches: the unit that layers
// journal, snapshot, serve, and merge. Items are kept sorted by name so
// the encoding is canonical regardless of insertion order.
type Set struct {
	items []item
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Len reports the number of sketches in the set.
func (s *Set) Len() int { return len(s.items) }

// find returns the index of name, or -1.
func (s *Set) find(name string) int {
	for i := range s.items {
		if s.items[i].name == name {
			return i
		}
	}
	return -1
}

// KindOf reports the kind stored under name, or 0 if absent.
func (s *Set) KindOf(name string) Kind {
	if i := s.find(name); i >= 0 {
		return s.items[i].sk.Kind()
	}
	return 0
}

// Put adds sk under name, keeping items sorted by name.
func (s *Set) Put(name string, sk Sketch) error {
	if len(name) == 0 || len(name) > 255 {
		return ErrName
	}
	at := len(s.items)
	for i := range s.items {
		if s.items[i].name == name {
			return ErrDupName
		}
		if s.items[i].name > name {
			at = i
			break
		}
	}
	s.items = append(s.items, item{})
	copy(s.items[at+1:], s.items[at:])
	s.items[at] = item{name: name, sk: sk}
	return nil
}

// Quantile returns the quantile sketch stored under name, or nil if
// absent or of another kind.
func (s *Set) Quantile(name string) *Quantile {
	if i := s.find(name); i >= 0 {
		if q, ok := s.items[i].sk.(*Quantile); ok {
			return q
		}
	}
	return nil
}

// TopK returns the heavy-hitter sketch stored under name, or nil.
func (s *Set) TopK(name string) *TopK {
	if i := s.find(name); i >= 0 {
		if t, ok := s.items[i].sk.(*TopK); ok {
			return t
		}
	}
	return nil
}

// HeavyHitters returns the heavy-hitter summary stored under name, in
// either form, or nil.
func (s *Set) HeavyHitters(name string) HeavyHitters {
	if i := s.find(name); i >= 0 {
		if h, ok := s.items[i].sk.(HeavyHitters); ok {
			return h
		}
	}
	return nil
}

// Card returns the cardinality sketch stored under name, or nil.
func (s *Set) Card(name string) *Card {
	if i := s.find(name); i >= 0 {
		if c, ok := s.items[i].sk.(*Card); ok {
			return c
		}
	}
	return nil
}

// Merge folds o into s item by item. The two sets must carry the same
// (name, kind) schema — partials produced by the same builder always
// do — and each pair must have compatible parameters.
func (s *Set) Merge(o *Set) error {
	if len(s.items) != len(o.items) {
		return ErrMergeSchema
	}
	for i := range s.items {
		if s.items[i].name != o.items[i].name || s.items[i].sk.Kind() != o.items[i].sk.Kind() {
			return ErrMergeSchema
		}
	}
	for i := range s.items {
		if err := s.items[i].sk.mergeSketch(o.items[i].sk); err != nil {
			return err
		}
	}
	return nil
}

// QuantilePoint is one (probability, value) sample of a quantile
// sketch.
type QuantilePoint struct {
	P float64 `json:"p"`
	V float64 `json:"v"`
}

// Summary is one sketch's canonical rendering: exactly the fields its
// kind defines, in a deterministic order.
type Summary struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "quantile" | "topk" | "card"
	// Quantile fields.
	Count     uint64          `json:"count,omitempty"`
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
	// Top-k fields: estimates undercount by at most Slack ≤ N/k.
	N     uint64  `json:"n,omitempty"`
	Slack uint64  `json:"slack,omitempty"`
	Top   []Entry `json:"top,omitempty"`
	// Cardinality fields.
	Estimate float64 `json:"estimate,omitempty"`
	RSE      float64 `json:"rse,omitempty"`
}

// Summarize renders every sketch of the set in canonical name order: a
// quantile sketch sampled at probs (no samples while it is empty), a
// heavy-hitter summary's top entries, a cardinality estimate with its
// relative standard error.
func (s *Set) Summarize(probs []float64, top int) []Summary {
	out := make([]Summary, len(s.items))
	for i := range s.items {
		sum := Summary{Name: s.items[i].name}
		switch sk := s.items[i].sk.(type) {
		case *Quantile:
			sum.Kind = "quantile"
			sum.Count = sk.Count()
			if sum.Count > 0 {
				for _, p := range probs {
					sum.Quantiles = append(sum.Quantiles, QuantilePoint{P: p, V: sk.Query(p)})
				}
			}
		case HeavyHitters:
			sum.Kind = "topk"
			sum.N = sk.N()
			sum.Slack = sk.Slack()
			sum.Top = sk.Top(top)
		case *Card:
			sum.Kind = "card"
			sum.Estimate = sk.Estimate()
			sum.RSE = sk.RSE()
		}
		out[i] = sum
	}
	return out
}
