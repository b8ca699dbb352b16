package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 2})
	if e.Len() != 4 {
		t.Fatalf("Len = %d", e.Len())
	}
	if got := e.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := e.At(2); !almost(got, 0.75) {
		t.Errorf("At(2) = %v, want 0.75", got)
	}
	if got := e.At(3); !almost(got, 1) {
		t.Errorf("At(3) = %v, want 1", got)
	}
	if got := e.Median(); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if !math.IsNaN(e.Quantile(0.5)) {
		t.Error("empty ECDF should return NaN quantiles")
	}
	if e.At(100) != 0 {
		t.Error("empty ECDF At != 0")
	}
	if pts := e.Curve(); len(pts) != 0 {
		t.Errorf("empty curve has %d points", len(pts))
	}
}

func TestECDFAddThenQuery(t *testing.T) {
	var e ECDF
	for _, v := range []float64{5, 1, 9} {
		e.Add(v)
	}
	if got := e.Quantile(1); got != 9 {
		t.Errorf("Quantile(1) = %v, want 9", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := math.Abs(math.Mod(a, 1))
		q := math.Abs(math.Mod(b, 1))
		if p > q {
			p, q = q, p
		}
		e := NewECDF(xs)
		return e.Quantile(p) <= e.Quantile(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFCurve(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 4})
	pts := e.Curve()
	want := []Point{{1, 0.5}, {2, 0.75}, {4, 1}}
	if len(pts) != len(want) {
		t.Fatalf("curve has %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i].X != want[i].X || !almost(pts[i].Y, want[i].Y) {
			t.Errorf("curve[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
}

func TestBoxStats(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	b := NewECDF(xs).Box()
	if b.P5 != 5 || b.Q1 != 25 || b.Median != 50 || b.Q3 != 75 || b.P95 != 95 {
		t.Errorf("Box = %v", b)
	}
	if b.N != 100 {
		t.Errorf("N = %d", b.N)
	}
}

// TestTotalTimeFractionPaperExample reproduces the metric's motivating
// example from §3.2.1: CPE1 with 365 one-day durations and CPE2 with 12
// thirty-day durations. A naive PMF would give CPE1's durations 96.8% of
// the mass; the total time fraction splits it by time spent.
func TestTotalTimeFractionPaperExample(t *testing.T) {
	var durations []float64
	for i := 0; i < 365; i++ {
		durations = append(durations, 1)
	}
	for i := 0; i < 12; i++ {
		durations = append(durations, 30)
	}
	pts := TotalTimeFraction(durations)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	total := 365.0 + 360.0
	if !almost(pts[0].Y, 365/total) {
		t.Errorf("mass at d=1 is %v, want %v", pts[0].Y, 365/total)
	}
	if !almost(pts[1].Y, 360/total) {
		t.Errorf("mass at d=30 is %v, want %v", pts[1].Y, 360/total)
	}
}

func TestTotalTimeFractionSumsToOneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		var ds []float64
		for _, v := range raw {
			if v > 0 {
				ds = append(ds, float64(v))
			}
		}
		pts := TotalTimeFraction(ds)
		if len(ds) == 0 {
			return pts == nil
		}
		var sum float64
		for _, p := range pts {
			sum += p.Y
		}
		return math.Abs(sum-1) < 1e-9 && sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCumulativeTotalTimeFraction(t *testing.T) {
	pts := CumulativeTotalTimeFraction([]float64{1, 1, 2})
	// total=4; mass(1)=2*1/4=0.5; mass(2)=2/4=0.5 -> cumulative 0.5, 1.0
	if len(pts) != 2 || !almost(pts[0].Y, 0.5) || !almost(pts[1].Y, 1.0) {
		t.Errorf("cumulative = %+v", pts)
	}
	if CumulativeTotalTimeFraction(nil) != nil {
		t.Error("empty input should return nil")
	}
}

func TestFractionAtOrBelow(t *testing.T) {
	curve := []Point{{24, 0.6}, {168, 0.9}, {720, 1.0}}
	cases := []struct {
		x, want float64
	}{
		{1, 0}, {24, 0.6}, {100, 0.6}, {168, 0.9}, {1e6, 1.0},
	}
	for _, c := range cases {
		if got := FractionAtOrBelow(curve, c.x); !almost(got, c.want) {
			t.Errorf("FractionAtOrBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDetectPeriodicModes(t *testing.T) {
	// 80% of time in 24h durations, 20% in scattered long ones.
	var ds []float64
	for i := 0; i < 100; i++ {
		ds = append(ds, 24)
	}
	ds = append(ds, 600)
	candidates := []float64{12, 24, 36, 48, 168, 336}
	modes := DetectPeriodicModes(ds, candidates, 0.05, 0.3)
	if len(modes) != 1 || modes[0].Period != 24 {
		t.Fatalf("modes = %+v, want single 24h mode", modes)
	}
	if modes[0].Fraction < 0.7 {
		t.Errorf("24h fraction = %v, want >= 0.7", modes[0].Fraction)
	}
	if got := DetectPeriodicModes(nil, candidates, 0.05, 0.3); got != nil {
		t.Error("empty input should return nil")
	}
}

func TestDetectPeriodicModesSortedByMass(t *testing.T) {
	var ds []float64
	for i := 0; i < 10; i++ {
		ds = append(ds, 24)
	}
	for i := 0; i < 100; i++ {
		ds = append(ds, 168)
	}
	modes := DetectPeriodicModes(ds, []float64{24, 168}, 0.05, 0.01)
	if len(modes) != 2 || modes[0].Period != 168 {
		t.Fatalf("modes = %+v, want 168 first", modes)
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(1) // one bin per decade
	h.Add(5, 1)             // decade 0
	h.Add(50, 1)            // decade 1
	h.Add(80000, 2)         // decade 4
	pts := h.Density()
	if len(pts) != 3 {
		t.Fatalf("density has %d points", len(pts))
	}
	var sum float64
	for _, p := range pts {
		sum += p.Y
	}
	if !almost(sum, 1) {
		t.Errorf("density sums to %v", sum)
	}
	if peak := h.PeakX(); peak < 1e4 || peak >= 1e5 {
		t.Errorf("PeakX = %v, want within decade 4", peak)
	}
	h.Add(-3, 1) // ignored
	h.Add(3, -1) // ignored
	if h.Total != 4 {
		t.Errorf("Total = %v, want 4", h.Total)
	}
}

func TestLogHistogramEmpty(t *testing.T) {
	h := NewLogHistogram(10)
	if h.Density() != nil {
		t.Error("empty histogram density should be nil")
	}
	if !math.IsNaN(h.PeakX()) {
		t.Error("empty histogram PeakX should be NaN")
	}
}

func TestIntHistogram(t *testing.T) {
	h := NewIntHistogram(64)
	for _, v := range []int{40, 40, 56, 64, 70, -3} {
		h.Add(v)
	}
	if h.N != 6 {
		t.Fatalf("N = %d", h.N)
	}
	if got := h.Counts[64]; got != 2 { // 64 and clamped 70
		t.Errorf("Counts[64] = %d, want 2", got)
	}
	if got := h.Counts[0]; got != 1 { // clamped -3
		t.Errorf("Counts[0] = %d, want 1", got)
	}
	if got := h.ArgMax(); got != 40 && got != 64 {
		t.Errorf("ArgMax = %d", got)
	}
	if got := h.Fraction(40); !almost(got, 2.0/6) {
		t.Errorf("Fraction(40) = %v", got)
	}
	if got := h.Fraction(200); got != 0 {
		t.Errorf("Fraction out of range = %v", got)
	}
}

func TestIntHistogramEmpty(t *testing.T) {
	h := NewIntHistogram(10)
	if h.Fraction(3) != 0 {
		t.Error("empty histogram fractions should be 0")
	}
}
