// Package stats implements the statistical machinery used throughout the
// DynamIPs analyses: empirical CDFs, quantile/box summaries, log-binned
// densities, and — centrally — the paper's "total time fraction" metric
// (§3.2.1, Eq. 1), a duration-weighted probability mass function that avoids
// over-representing hosts with short assignment durations.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Point is one (x, y) sample of a distribution curve.
type Point struct {
	X float64
	Y float64
}

// ECDF is an empirical cumulative distribution function over float64 samples.
// The zero value is an empty distribution; Add samples and call Sort (or use
// NewECDF) before querying.
type ECDF struct {
	xs     []float64
	sorted bool
}

// NewECDF builds an ECDF from the given samples. The input slice is copied.
func NewECDF(samples []float64) *ECDF {
	e := &ECDF{xs: append([]float64(nil), samples...)}
	e.Sort()
	return e
}

// Add appends one sample.
func (e *ECDF) Add(x float64) { e.xs = append(e.xs, x); e.sorted = false }

// Len returns the number of samples.
func (e *ECDF) Len() int { return len(e.xs) }

// Sort orders the samples; queries require sorted data and call it lazily
// through the exported query methods.
func (e *ECDF) Sort() {
	if !e.sorted {
		sort.Float64s(e.xs)
		e.sorted = true
	}
}

// At returns the fraction of samples <= x, in [0, 1].
func (e *ECDF) At(x float64) float64 {
	e.Sort()
	if len(e.xs) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.xs, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.xs))
}

// Quantile returns the p-quantile (0 <= p <= 1) using nearest-rank on the
// sorted samples. An empty distribution returns NaN.
func (e *ECDF) Quantile(p float64) float64 {
	e.Sort()
	n := len(e.xs)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return e.xs[0]
	}
	if p >= 1 {
		return e.xs[n-1]
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return e.xs[i]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Curve returns the full step curve of the ECDF as (x, F(x)) points, one per
// distinct sample value.
func (e *ECDF) Curve() []Point {
	e.Sort()
	n := len(e.xs)
	pts := make([]Point, 0, n)
	for i := 0; i < n; {
		j := i
		for j < n && e.xs[j] == e.xs[i] {
			j++
		}
		pts = append(pts, Point{X: e.xs[i], Y: float64(j) / float64(n)})
		i = j
	}
	return pts
}

// BoxStats is a five-number summary matching the paper's Fig. 3 box plots:
// whiskers at the 5th and 95th percentiles, the inner-quartile box, and the
// median.
type BoxStats struct {
	P5     float64
	Q1     float64
	Median float64
	Q3     float64
	P95    float64
	N      int
}

// Box computes BoxStats for the distribution.
func (e *ECDF) Box() BoxStats {
	return BoxStats{
		P5:     e.Quantile(0.05),
		Q1:     e.Quantile(0.25),
		Median: e.Quantile(0.5),
		Q3:     e.Quantile(0.75),
		P95:    e.Quantile(0.95),
		N:      e.Len(),
	}
}

// BoxOfCounts computes the BoxStats of a multiset given as parallel
// (value, count) slices with values in ascending order — equivalent to
// NewECDF over the expanded multiset without materializing it, which is
// how the streaming CDN pipeline summarizes 10⁸ episode durations in a
// few hundred histogram cells. Quantiles use the same nearest-rank rule
// as ECDF.Quantile, so for any multiset the result is byte-identical to
// the in-memory path's ECDF.Box().
func BoxOfCounts(vals []float64, counts []int64) BoxStats {
	var n int64
	for _, c := range counts {
		n += c
	}
	q := func(p float64) float64 {
		if n == 0 {
			return math.NaN()
		}
		i := int64(math.Ceil(p*float64(n))) - 1
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		var cum int64
		for k, c := range counts {
			cum += c
			if i < cum {
				return vals[k]
			}
		}
		return vals[len(vals)-1]
	}
	return BoxStats{
		P5:     q(0.05),
		Q1:     q(0.25),
		Median: q(0.5),
		Q3:     q(0.75),
		P95:    q(0.95),
		N:      int(n),
	}
}

// String renders a box summary compactly.
func (b BoxStats) String() string {
	return fmt.Sprintf("n=%d p5=%.2f q1=%.2f med=%.2f q3=%.2f p95=%.2f",
		b.N, b.P5, b.Q1, b.Median, b.Q3, b.P95)
}

// TotalTimeFraction computes the paper's Eq. 1: a weighted PMF over the
// distinct duration values d, where each duration's mass is
// n(d)*d / sum(all durations). Hosts whose addresses change rarely thus
// contribute mass proportional to the *time* they spent in each assignment
// rather than the *count* of assignments.
//
// The returned points are sorted by duration and their Y values sum to 1
// (within floating-point error). An empty input returns nil.
func TotalTimeFraction(durations []float64) []Point {
	if len(durations) == 0 {
		return nil
	}
	var total float64
	byVal := make(map[float64]int, len(durations))
	for _, d := range durations {
		total += d
		byVal[d]++
	}
	if total <= 0 {
		return nil
	}
	pts := make([]Point, 0, len(byVal))
	for d, n := range byVal {
		pts = append(pts, Point{X: d, Y: float64(n) * d / total})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

// CumulativeTotalTimeFraction returns the running sum of TotalTimeFraction:
// the paper's "cumulative total time fraction" curves (Fig. 1). The final
// point's Y is 1 (within floating-point error).
func CumulativeTotalTimeFraction(durations []float64) []Point {
	pts := TotalTimeFraction(durations)
	var c float64
	for i := range pts {
		c += pts[i].Y
		pts[i].Y = c
	}
	return pts
}

// FractionAtOrBelow evaluates a cumulative curve at x: the largest Y whose
// X <= x, or 0 when x precedes the first point.
func FractionAtOrBelow(curve []Point, x float64) float64 {
	i := sort.Search(len(curve), func(i int) bool { return curve[i].X > x })
	if i == 0 {
		return 0
	}
	return curve[i-1].Y
}

// Mode is a detected concentration of duration mass around a period.
type Mode struct {
	Period   float64 // center of the detected mode
	Fraction float64 // total-time fraction within the tolerance window
}

// DetectPeriodicModes scans a set of candidate periods (e.g. 12 h, 24 h,
// 36 h, 48 h, 1 w, 2 w) and reports those where at least minFraction of the
// total assignment time falls within ±tol (relative) of the candidate. This
// operationalizes the paper's "well-defined modes … suggest that ISPs
// renumber addresses periodically" (§3.2): e.g. DTAG's 24 h mode.
func DetectPeriodicModes(durations []float64, candidates []float64, tol, minFraction float64) []Mode {
	if len(durations) == 0 {
		return nil
	}
	var total float64
	for _, d := range durations {
		total += d
	}
	if total <= 0 {
		return nil
	}
	var modes []Mode
	for _, p := range candidates {
		lo, hi := p*(1-tol), p*(1+tol)
		var mass float64
		for _, d := range durations {
			if d >= lo && d <= hi {
				mass += d
			}
		}
		if frac := mass / total; frac >= minFraction {
			modes = append(modes, Mode{Period: p, Fraction: frac})
		}
	}
	sort.Slice(modes, func(i, j int) bool { return modes[i].Fraction > modes[j].Fraction })
	return modes
}

// LogHistogram bins positive samples into logarithmic bins of the given
// number per decade, as used for Fig. 4's density over 10^0..10^6.
type LogHistogram struct {
	BinsPerDecade int
	Counts        map[int]float64 // bin index -> accumulated weight
	Total         float64
}

// NewLogHistogram creates a histogram with the given resolution.
func NewLogHistogram(binsPerDecade int) *LogHistogram {
	if binsPerDecade <= 0 {
		binsPerDecade = 10
	}
	return &LogHistogram{BinsPerDecade: binsPerDecade, Counts: make(map[int]float64)}
}

// Add accumulates weight w at value x (x must be > 0; non-positive x is
// ignored).
func (h *LogHistogram) Add(x, w float64) {
	if x <= 0 || w <= 0 {
		return
	}
	bin := int(math.Floor(math.Log10(x) * float64(h.BinsPerDecade)))
	h.Counts[bin] += w
	h.Total += w
}

// Density returns normalized (bin center, fraction) points sorted by X.
func (h *LogHistogram) Density() []Point {
	if h.Total <= 0 {
		return nil
	}
	pts := make([]Point, 0, len(h.Counts))
	for bin, w := range h.Counts {
		center := math.Pow(10, (float64(bin)+0.5)/float64(h.BinsPerDecade))
		pts = append(pts, Point{X: center, Y: w / h.Total})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	return pts
}

// PeakX returns the bin center holding the most mass (NaN when empty).
// Ties break toward the lowest bin so the answer is independent of map
// iteration order.
func (h *LogHistogram) PeakX() float64 {
	best, bestBin, bestW := math.NaN(), 0, -1.0
	for bin, w := range h.Counts {
		if w > bestW || (w == bestW && bin < bestBin) {
			bestW = w
			bestBin = bin
			best = math.Pow(10, (float64(bin)+0.5)/float64(h.BinsPerDecade))
		}
	}
	return best
}

// IntHistogram counts occurrences of small non-negative integer values,
// used for the CPL spectra (Fig. 5, X in 0..64) and inferred-prefix-length
// charts (Figs. 6/9).
type IntHistogram struct {
	Counts []int
	N      int
}

// NewIntHistogram creates a histogram for values in [0, max].
func NewIntHistogram(max int) *IntHistogram {
	return &IntHistogram{Counts: make([]int, max+1)}
}

// Add counts one occurrence of v; out-of-range values are clamped.
func (h *IntHistogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.Counts) {
		v = len(h.Counts) - 1
	}
	h.Counts[v]++
	h.N++
}

// Fraction returns the share of samples with value v.
func (h *IntHistogram) Fraction(v int) float64 {
	if h.N == 0 || v < 0 || v >= len(h.Counts) {
		return 0
	}
	return float64(h.Counts[v]) / float64(h.N)
}

// ArgMax returns the value with the highest count (lowest index wins ties).
func (h *IntHistogram) ArgMax() int {
	best, bestC := 0, -1
	for v, c := range h.Counts {
		if c > bestC {
			best, bestC = v, c
		}
	}
	return best
}
