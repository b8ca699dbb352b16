package dynamips

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynamips/internal/cdn"
	"dynamips/internal/cdn/stream"
	"dynamips/internal/experiments"
	"dynamips/internal/sketch"
)

// goldenSketchShards is the corpus run's partition width. The merged
// sketch bytes do not depend on it at this scale — the distinct-key
// counts sit inside the Misra-Gries exact regime — and the corpus gate
// proves that by rebuilding at other widths.
const goldenSketchShards = 16

// goldenSketchThreshold is the corpus run's mobile-degree threshold.
// The pipeline default (experiments.MobileDegreeThreshold) sits above
// every /24 degree at golden scale, which would leave dur_mobile empty;
// this value splits the golden degree distribution so both duration
// sketches carry mass.
const goldenSketchThreshold = 100

// goldenSketchProbs is the quantile grid the accuracy report renders.
var goldenSketchProbs = []float64{0.05, 0.25, 0.5, 0.75, 0.95}

// goldenSketchCorpus is the batch-vs-sketch golden gate: it streams the
// golden CDN dataset through the sharded analyzer, renders every sketch
// answer next to the exact batch recomputation into
// testdata/golden/sketch/accuracy.txt, and fails if any answer leaves
// its theoretical bound (rank error ≤ ceil(alpha·n), heavy-hitter error
// ≤ N/k — zero in the exact regime — cardinality within 4·RSE) or if
// the merged bytes change under a different shard/worker split.
func goldenSketchCorpus(t *testing.T, c *experiments.CDNData) {
	t.Helper()
	in := filepath.Join(t.TempDir(), "assocs.csv")
	f, err := os.Create(in)
	if err != nil {
		t.Fatalf("creating corpus CSV: %v", err)
	}
	if err := cdn.WriteCSV(f, c.Dataset.Assocs); err != nil {
		f.Close()
		t.Fatalf("writing corpus CSV: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := stream.Analyze(stream.AnalyzeConfig{
		In: in, Shards: goldenSketchShards, Workers: 1,
		Threshold: goldenSketchThreshold,
	})
	if err != nil {
		t.Fatalf("stream.Analyze: %v", err)
	}
	sk := rep.Sketches
	if sk == nil {
		t.Fatal("streaming report carries no sketches")
	}

	// Exact batch state, recomputed from the materialized dataset the
	// batch pipeline already produced. The fixed/mobile split uses the
	// corpus threshold, not c.Mobile's pipeline default.
	mobile := cdn.MobileLabel(c.Dataset.Assocs, goldenSketchThreshold)
	var fixedD, mobileD []float64
	for _, ep := range c.Episodes {
		if mobile[ep.K24] {
			mobileD = append(mobileD, float64(ep.Days()))
		} else {
			fixedD = append(fixedD, float64(ep.Days()))
		}
	}
	deg := map[uint32]map[uint64]bool{}
	rows64 := map[uint64]uint64{}
	for _, a := range c.Dataset.Assocs {
		m := deg[a.K24]
		if m == nil {
			m = map[uint64]bool{}
			deg[a.K24] = m
		}
		m[a.K64] = true
		rows64[a.K64]++
	}
	var degD []float64
	deg24 := map[uint64]uint64{}
	for k24, m := range deg {
		degD = append(degD, float64(len(m)))
		deg24[uint64(k24)] = uint64(len(m))
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "batch-vs-sketch accuracy, golden CDN corpus (shards=%d)\n", goldenSketchShards)
	fmt.Fprintf(&buf, "associations=%d episodes=%d fixed=%d mobile=%d\n\n",
		len(c.Dataset.Assocs), len(c.Episodes), len(fixedD), len(mobileD))
	renderGoldenQuantile(t, &buf, sketch.Deg24, sk.Quantile(sketch.Deg24), degD)
	renderGoldenQuantile(t, &buf, sketch.DurFixed, sk.Quantile(sketch.DurFixed), fixedD)
	renderGoldenQuantile(t, &buf, sketch.DurMobile, sk.Quantile(sketch.DurMobile), mobileD)
	renderGoldenTopK(t, &buf, sketch.Hot24, sk.TopK(sketch.Hot24), deg24)
	renderGoldenTopK(t, &buf, sketch.Hot64, sk.TopK(sketch.Hot64), rows64)
	renderGoldenCard(t, &buf, sketch.Pfx24, sk.Card(sketch.Pfx24), len(deg))
	renderGoldenCard(t, &buf, sketch.Pfx64, sk.Card(sketch.Pfx64), len(rows64))
	checkGolden(t, filepath.Join("sketch", "accuracy.txt"), buf.Bytes())

	// The merged bytes are a pure function of the input multiset: any
	// shard partition and any worker fan-out must reproduce them.
	want := sk.Encode()
	for _, tc := range []struct{ shards, workers int }{{goldenSketchShards, 8}, {5, 2}} {
		again, err := stream.Analyze(stream.AnalyzeConfig{
			In: in, Shards: tc.shards, Workers: tc.workers,
			Threshold: goldenSketchThreshold,
		})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", tc.shards, tc.workers, err)
		}
		if !bytes.Equal(again.Sketches.Encode(), want) {
			t.Errorf("shards=%d workers=%d: merged sketch bytes differ from corpus run", tc.shards, tc.workers)
		}
	}
}

// renderGoldenQuantile writes one quantile sketch's grid (estimate,
// exact value, rank error, bound) and enforces rank error ≤
// ceil(alpha·n) at every probe.
func renderGoldenQuantile(t *testing.T, buf *bytes.Buffer, name string, q *sketch.Quantile, data []float64) {
	t.Helper()
	if q.Count() != uint64(len(data)) {
		t.Errorf("%s: sketch count %d, exact %d", name, q.Count(), len(data))
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	bound := math.Ceil(sketch.Alpha * float64(len(sorted)))
	fmt.Fprintf(buf, "quantile %-10s n=%-6d rank_bound=%.0f\n", name, len(sorted), bound)
	if len(sorted) == 0 {
		fmt.Fprintln(buf, "  (empty)")
		fmt.Fprintln(buf)
		return
	}
	for _, p := range goldenSketchProbs {
		est := q.Query(p)
		exact := 0.0
		if n := len(sorted); n > 0 {
			idx := int(math.Ceil(p*float64(n))) - 1
			exact = sorted[max(idx, 0)]
		}
		rankErr := quantileRankError(sorted, est, p)
		fmt.Fprintf(buf, "  p=%.2f est=%-8g exact=%-8g rank_err=%.0f\n", p, est, exact, rankErr)
		if rankErr > bound {
			t.Errorf("%s p=%.2f: rank error %.0f exceeds bound %.0f", name, p, rankErr, bound)
		}
	}
	fmt.Fprintln(buf)
}

// quantileRankError measures how far est's rank interval in sorted sits
// from the target rank ceil(p·n).
func quantileRankError(sorted []float64, est float64, p float64) float64 {
	lo := sort.SearchFloat64s(sorted, est) + 1
	hi := sort.SearchFloat64s(sorted, math.Nextafter(est, math.Inf(1)))
	if hi < lo {
		hi = lo
	}
	target := math.Ceil(p * float64(len(sorted)))
	switch {
	case float64(lo) > target:
		return float64(lo) - target
	case float64(hi) < target:
		return target - float64(hi)
	}
	return 0
}

// renderGoldenTopK writes one heavy-hitter sketch's head (top entries
// with exact weights) and enforces the exact-regime contract: zero
// slack and per-key estimates equal to the batch truth.
func renderGoldenTopK(t *testing.T, buf *bytes.Buffer, name string, tk *sketch.TopK, exact map[uint64]uint64) {
	t.Helper()
	fmt.Fprintf(buf, "topk     %-10s n=%-6d keys=%d slack=%d\n", name, tk.N(), len(exact), tk.Slack())
	if tk.Slack() != 0 {
		t.Errorf("%s: slack %d in exact regime", name, tk.Slack())
	}
	for _, e := range tk.Top(5) {
		fmt.Fprintf(buf, "  key=%#016x count=%-8d exact=%d\n", e.Key, e.Count, exact[e.Key])
		if e.Count != exact[e.Key] {
			t.Errorf("%s key %#x: estimate %d, exact %d", name, e.Key, e.Count, exact[e.Key])
		}
	}
	fmt.Fprintln(buf)
}

// renderGoldenCard writes one cardinality sketch's estimate next to the
// exact distinct count and enforces relative error ≤ 4·RSE.
func renderGoldenCard(t *testing.T, buf *bytes.Buffer, name string, c *sketch.Card, exact int) {
	t.Helper()
	rel := math.Abs(c.Estimate()-float64(exact)) / float64(exact)
	bound := 4 * c.RSE()
	fmt.Fprintf(buf, "card     %-10s est=%.1f exact=%d rel_err=%.4f bound=%.4f\n",
		name, c.Estimate(), exact, rel, bound)
	if rel > bound {
		t.Errorf("%s: estimate %.1f for %d distinct, relative error %.4f > %.4f",
			name, c.Estimate(), exact, rel, bound)
	}
}
