package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dynamips/internal/cdn"
	"dynamips/internal/checkpoint"
	"dynamips/internal/sketch"
)

// writeOracleCSV materializes the reference dataset to a CSV file.
func writeOracleCSV(t *testing.T, cfg cdn.GenConfig) (*cdn.Dataset, string) {
	t.Helper()
	ds, csv := oracleCSV(t, cfg)
	in := filepath.Join(t.TempDir(), "assocs.csv")
	if err := os.WriteFile(in, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	return ds, in
}

// TestSketchWorkerShardInvariance: the merged sketch bytes must be
// identical at every -workers value (the partition is fixed by -shards,
// so this holds unconditionally) and at every -shards value too, because
// the test dataset's distinct-key counts sit below sketch.TopKCap — the
// Misra-Gries exact regime, where sketch state is a pure function of the
// input multiset (see DESIGN.md "Online analysis").
func TestSketchWorkerShardInvariance(t *testing.T) {
	_, in := writeOracleCSV(t, testGenConfig(7))
	var want []byte
	for _, tc := range []struct{ shards, workers int }{
		{16, 1}, {16, 4}, {16, 16}, {1, 1}, {5, 2}, {64, 4},
	} {
		rep, err := Analyze(AnalyzeConfig{In: in, Shards: tc.shards, Workers: tc.workers, Threshold: 350})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", tc.shards, tc.workers, err)
		}
		got := rep.Sketches.Encode()
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d workers=%d: sketch bytes differ from baseline", tc.shards, tc.workers)
		}
	}
}

// TestSketchMatchesBatchOracle is the batch-vs-sketch harness over the
// full pipeline: every summary the streaming path sketches is recomputed
// exactly from the materialized dataset, and the sketch answers must sit
// inside their theoretical error bounds (rank error ≤ alpha·n,
// heavy-hitter error ≤ N/k — zero here, exact regime — and cardinality
// relative error within 4·RSE).
func TestSketchMatchesBatchOracle(t *testing.T) {
	ds, in := writeOracleCSV(t, testGenConfig(7))
	const threshold = 350
	rep, err := Analyze(AnalyzeConfig{In: in, Shards: 16, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	sk := rep.Sketches
	if sk == nil {
		t.Fatal("streaming report carries no sketches")
	}

	// Exact batch state.
	mobile := cdn.MobileLabel(ds.Assocs, threshold)
	eps := cdn.Episodes(ds.Assocs, cdn.DefaultEpisodeConfig())
	var fixedD, mobileD []float64
	for _, ep := range eps {
		if mobile[ep.K24] {
			mobileD = append(mobileD, float64(ep.Days()))
		} else {
			fixedD = append(fixedD, float64(ep.Days()))
		}
	}
	deg := map[uint32]map[uint64]bool{}
	rows64 := map[uint64]uint64{}
	for _, a := range ds.Assocs {
		m := deg[a.K24]
		if m == nil {
			m = map[uint64]bool{}
			deg[a.K24] = m
		}
		m[a.K64] = true
		rows64[a.K64]++
	}
	var degD []float64
	for _, m := range deg {
		degD = append(degD, float64(len(m)))
	}

	checkQuantile := func(name string, q *sketch.Quantile, data []float64) {
		t.Helper()
		if q.Count() != uint64(len(data)) {
			t.Fatalf("%s: sketch count %d, exact %d", name, q.Count(), len(data))
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
			est := q.Query(p)
			// Rank error: the estimate's rank interval must be within
			// alpha*n of the target rank.
			lo := sort.SearchFloat64s(sorted, est) + 1
			hi := sort.SearchFloat64s(sorted, math.Nextafter(est, math.Inf(1)))
			if hi < lo {
				hi = lo
			}
			target := math.Ceil(p * float64(len(sorted)))
			rankErr := 0.0
			if float64(lo) > target {
				rankErr = float64(lo) - target
			} else if float64(hi) < target {
				rankErr = target - float64(hi)
			}
			if bound := sketch.Alpha * float64(len(sorted)); rankErr > bound+1 {
				t.Errorf("%s p=%.2f: est %.3g rank error %.1f > %.1f", name, p, est, rankErr, bound)
			}
		}
	}
	checkQuantile(sketch.DurFixed, sk.Quantile(sketch.DurFixed), fixedD)
	checkQuantile(sketch.DurMobile, sk.Quantile(sketch.DurMobile), mobileD)
	checkQuantile(sketch.Deg24, sk.Quantile(sketch.Deg24), degD)

	// Heavy hitters: the test scale is in the exact regime, so every
	// estimate must be exact and slack zero.
	hot24 := sk.TopK(sketch.Hot24)
	if hot24.Slack() != 0 {
		t.Fatalf("hot24 slack %d in exact regime", hot24.Slack())
	}
	for k24, m := range deg {
		if est, ok := hot24.Est(uint64(k24)); !ok || est != uint64(len(m)) {
			t.Fatalf("hot24 /24 %d: est %d tracked=%v, exact %d", k24, est, ok, len(m))
		}
	}
	hot64 := sk.TopK(sketch.Hot64)
	if hot64.Slack() != 0 {
		t.Fatalf("hot64 slack %d in exact regime", hot64.Slack())
	}
	for k64, rows := range rows64 {
		if est, ok := hot64.Est(k64); !ok || est != rows {
			t.Fatalf("hot64 /64 %#x: est %d tracked=%v, exact %d", k64, est, ok, rows)
		}
	}

	// Cardinalities: within 4 relative standard errors of truth.
	for _, tc := range []struct {
		name  string
		exact int
	}{
		{sketch.Pfx24, len(deg)},
		{sketch.Pfx64, len(rows64)},
	} {
		c := sk.Card(tc.name)
		rel := math.Abs(c.Estimate()-float64(tc.exact)) / float64(tc.exact)
		if bound := 4 * c.RSE(); rel > bound {
			t.Errorf("%s: estimate %.0f for %d distinct, relative error %.4f > %.4f",
				tc.name, c.Estimate(), tc.exact, rel, bound)
		}
	}
}

// TestSketchKillAndResume: an analyze run killed mid-shard must resume to
// byte-identical sketches, including recomputing journal entries whose
// sketch bytes fail decoding (the self-heal path for journals written
// before the sketch plane existed).
func TestSketchKillAndResume(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	cfg := testGenConfig(13)
	ds, csv := oracleCSV(t, cfg)
	base := t.TempDir()
	in := filepath.Join(base, "assocs.csv")
	if err := os.WriteFile(in, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Analyze(AnalyzeConfig{In: in, Shards: 16, Threshold: 350, Table: ds.BGP})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Sketches.Encode()

	ckpt := filepath.Join(base, "ckpt")
	run, err := checkpoint.Open(ckpt, testKey(13), json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	acfg := AnalyzeConfig{In: in, Shards: 16, Threshold: 350, Table: ds.BGP, Checkpoint: run}
	checkpoint.SetCrashPlan(7, true)
	_, anErr := Analyze(acfg)
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(anErr, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v, want ErrCrashInjected", anErr)
	}
	run.Close()

	resumed, err := checkpoint.Open(ckpt, testKey(13), json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	acfg.Checkpoint = resumed
	acfg.Workers = 2
	rep, err := Analyze(acfg)
	if err != nil {
		t.Fatalf("resumed Analyze: %v", err)
	}
	if !bytes.Equal(rep.Sketches.Encode(), want) {
		t.Fatal("resumed sketches differ from uninterrupted run")
	}
}

// TestDecShardRejectsBadSketch: a journaled shard whose sketch bytes do
// not decode (nil — the pre-sketch journal shape — or corrupt) must fail
// decode validation so checkpoint.Stage recomputes the unit.
func TestDecShardRejectsBadSketch(t *testing.T) {
	dir := t.TempDir()
	sf, err := createSpill(filepath.Join(dir, "run-0.bin"), false)
	if err != nil {
		t.Fatal(err)
	}
	size, err := sf.finish()
	if err != nil {
		t.Fatal(err)
	}
	az := &analyzer{dir: dir}
	enc := func(m shardMeta) []byte {
		b, err := checkpoint.GobEncode(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := shardMeta{File: "run-0.bin", Size: size, Sketch: sketch.NewSet().Encode()}
	if _, err := az.decShard(enc(good)); err != nil {
		t.Fatalf("valid meta rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		sketch []byte
	}{
		{"nil-sketch", nil},
		{"corrupt-sketch", []byte("not a sketch set")},
	} {
		m := good
		m.Sketch = tc.sketch
		if _, err := az.decShard(enc(m)); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestTailSpillDir: folding spill files reproduces a direct fold of the
// same records, skips re-sorted run files, and tolerates torn writes.
func TestTailSpillDir(t *testing.T) {
	dir := t.TempDir()
	recs := make([]cdn.Association, 500)
	for i := range recs {
		recs[i] = cdn.Association{
			K24:  uint32(i % 37),
			K64:  uint64(i % 111),
			Day:  uint16(i % 30),
			Hits: 1,
		}
	}
	write := func(name string, rs []cdn.Association) {
		t.Helper()
		sf, err := createSpill(filepath.Join(dir, name), false)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range rs {
			if err := sf.cw.Append(a); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sf.finish(); err != nil {
			t.Fatal(err)
		}
	}
	write("shard-0.bin", recs[:200])
	write("gen-1.bin", recs[200:])
	// Run files hold the same records re-sorted; folding them too would
	// double count.
	write("run-0.bin", recs[:100])

	want := NewTailSet()
	for _, a := range recs {
		FoldTail(want, a)
	}
	got, n, err := TailSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("folded %d records, want %d", n, len(recs))
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatal("tail fold differs from direct fold")
	}

	// A torn file (truncated mid-chunk) contributes the chunks before
	// the tear without failing the poll: two full chunks survive, the
	// third is damaged.
	tornRecs := make([]cdn.Association, 2*chunkRecords+10)
	for i := range tornRecs {
		tornRecs[i] = cdn.Association{K24: uint32(i), K64: uint64(i), Day: 1, Hits: 1}
	}
	write("shard-2.bin", tornRecs)
	torn := filepath.Join(dir, "shard-2.bin")
	src, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, src[:len(src)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	// An empty (header-less) file is still being created by its writer.
	if err := os.WriteFile(filepath.Join(dir, "gen-9.bin"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got2, n2, err := TailSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n2 <= n {
		t.Fatalf("torn file contributed no records (%d -> %d)", n, n2)
	}
	if bytes.Equal(got2.Encode(), got.Encode()) {
		t.Fatal("torn file's prefix did not change the fold")
	}
}
