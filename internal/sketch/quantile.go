package sketch

import (
	"math"
	"slices"
)

// linCut is the upper edge of the quantile sketch's linear region:
// values in (0, linCut] land in exact unit-width buckets (so the
// integer-valued duration data the repo produces — episode days,
// session seconds quantized to whole renew intervals — is summarized
// with ZERO value error up to linCut), while values above it fall into
// log buckets with relative width alpha.
const linCut = 1024

// Quantile is a rank-error-bounded quantile sketch over non-negative
// values: a log-linear bucket histogram in the DDSketch family. Bucket
// counts are exact, so the cumulative walk that answers Query reaches
// exactly the bucket holding the value of the target rank; the only
// error is within-bucket: zero in the linear region, relative alpha in
// the log region. State is a pure function of the folded multiset —
// merging partials in any order or association yields identical bytes.
type Quantile struct {
	alpha float64
	gamma float64
	invLg float64
	zeros uint64
	n     uint64
	// counts maps bucket index to exact count. Linear buckets use
	// index i in [1, linCut] covering (i-1, i]; log buckets use
	// linCut+j covering (linCut·gamma^(j-1), linCut·gamma^j].
	counts map[int32]uint64
}

// NewQuantile builds a sketch with relative accuracy alpha in the log
// region. It panics if alpha is outside (0, 0.5): accuracy is a
// compile-time choice of the call site, not input data.
func NewQuantile(alpha float64) *Quantile {
	if !(alpha > 0 && alpha < 0.5) {
		panic("sketch: quantile alpha outside (0, 0.5)")
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Quantile{
		alpha:  alpha,
		gamma:  gamma,
		invLg:  1 / math.Log(gamma),
		counts: make(map[int32]uint64),
	}
}

// Alpha reports the relative accuracy of the log region.
func (q *Quantile) Alpha() float64 { return q.alpha }

// Kind reports KindQuantile.
func (q *Quantile) Kind() Kind { return KindQuantile }

// Count reports how many values have been folded in.
func (q *Quantile) Count() uint64 { return q.n }

// bucketOf maps a positive value to its bucket index.
func (q *Quantile) bucketOf(x float64) int32 {
	if x <= linCut {
		return int32(math.Ceil(x))
	}
	return linCut + int32(math.Ceil(math.Log(x/linCut)*q.invLg))
}

// Add folds one value into the sketch. Values at or below zero count
// toward the zero bucket (durations are never negative; a defensive
// clamp keeps the state well-formed on junk input).
func (q *Quantile) Add(x float64) { q.AddN(x, 1) }

// AddN folds a value with multiplicity w.
func (q *Quantile) AddN(x float64, w uint64) {
	if w == 0 {
		return
	}
	q.n += w
	if x <= 0 || math.IsNaN(x) {
		q.zeros += w
		return
	}
	q.counts[q.bucketOf(x)] += w
}

// value returns the representative value of a bucket: the bucket index
// itself in the linear region (exact for integer inputs), the
// alpha-relative midpoint in the log region.
func (q *Quantile) value(idx int32) float64 {
	if idx <= linCut {
		return float64(idx)
	}
	u := linCut * math.Pow(q.gamma, float64(idx-linCut))
	return 2 * u / (1 + q.gamma)
}

// sortedIdx returns the populated bucket indices in ascending order.
func (q *Quantile) sortedIdx() []int32 {
	idx := make([]int32, 0, len(q.counts))
	for i := range q.counts {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	return idx
}

// Query returns the nearest-rank p-quantile estimate (p in [0, 1]),
// matching stats.ECDF.Quantile's convention: the value whose rank is
// ceil(p·n). Zero on an empty sketch. The returned estimate is the
// representative of the bucket containing the true p-quantile of the
// folded multiset: exact for integer values up to linCut, within
// relative alpha above it.
func (q *Quantile) Query(p float64) float64 {
	if q.n == 0 {
		return 0
	}
	r := uint64(math.Ceil(p * float64(q.n)))
	if r < 1 {
		r = 1
	}
	if r > q.n {
		r = q.n
	}
	if r <= q.zeros {
		return 0
	}
	cum := q.zeros
	for _, idx := range q.sortedIdx() {
		cum += q.counts[idx]
		if cum >= r {
			return q.value(idx)
		}
	}
	return 0
}

// CDF returns the exact fraction of folded values whose bucket is at
// or below x's bucket. At bucket upper bounds — every integer up to
// linCut — this is the exact empirical CDF.
func (q *Quantile) CDF(x float64) float64 {
	if q.n == 0 {
		return 0
	}
	cum := q.zeros
	if x > 0 && !math.IsNaN(x) {
		b := q.bucketOf(x)
		for _, idx := range q.sortedIdx() {
			if idx > b {
				break
			}
			cum += q.counts[idx]
		}
	}
	return float64(cum) / float64(q.n)
}

// Merge folds o into q. Both sketches must share alpha.
func (q *Quantile) Merge(o *Quantile) error {
	if math.Float64bits(q.alpha) != math.Float64bits(o.alpha) {
		return ErrMergeParam
	}
	q.zeros += o.zeros
	q.n += o.n
	// Additions commute, so o's map order cannot show in q.
	for idx, c := range o.counts {
		q.counts[idx] += c
	}
	return nil
}

func (q *Quantile) mergeSketch(other Sketch) error {
	o, ok := other.(*Quantile)
	if !ok {
		return ErrMergeSchema
	}
	return q.Merge(o)
}

func (q *Quantile) cloneSketch() Sketch {
	out := NewQuantile(q.alpha)
	out.zeros = q.zeros
	out.n = q.n
	for _, idx := range q.sortedIdx() {
		out.counts[idx] = q.counts[idx]
	}
	return out
}
