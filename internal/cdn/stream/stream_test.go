package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dynamips/internal/cdn"
	"dynamips/internal/checkpoint"
	"dynamips/internal/obs"
)

// testGenConfig is the small-but-nontrivial model the identity tests run:
// big enough that every operator contributes and the mismatch filter
// fires, small enough to stay fast.
func testGenConfig(seed int64) cdn.GenConfig {
	cfg := cdn.DefaultGenConfig(seed)
	cfg.Scale = 0.02
	cfg.Days = 30
	return cfg
}

// oracleCSV materializes the reference dataset and its CSV encoding.
func oracleCSV(t *testing.T, cfg cdn.GenConfig) (*cdn.Dataset, []byte) {
	t.Helper()
	ds, err := cdn.Generate(cfg)
	if err != nil {
		t.Fatalf("oracle Generate: %v", err)
	}
	var buf bytes.Buffer
	if err := cdn.WriteCSV(&buf, ds.Assocs); err != nil {
		t.Fatalf("oracle WriteCSV: %v", err)
	}
	return ds, buf.Bytes()
}

func TestChunkCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Spans several full chunks plus a partial tail.
	recs := make([]cdn.Association, 3*chunkRecords+57)
	for i := range recs {
		recs[i] = cdn.Association{
			K24:  rng.Uint32() & 0xFFFFFF,
			K64:  rng.Uint64(),
			Day:  uint16(rng.Intn(1 << 16)),
			Hits: rng.Uint32(),
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range recs {
		if err := w.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		a, ok, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !ok {
			t.Fatalf("stream ended at record %d of %d", i, len(recs))
		}
		if a != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, a, recs[i])
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("after last record: ok=%v err=%v, want clean EOF", ok, err)
	}
}

func TestChunkCodecEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("empty file: ok=%v err=%v", ok, err)
	}
}

func TestChunkCodecCorruption(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Append(cdn.Association{K24: uint32(i), K64: uint64(i), Day: 1, Hits: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	drain := func(b []byte) error {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return err
		}
		for {
			_, ok, err := r.Next()
			if err != nil || !ok {
				return err
			}
		}
	}

	if err := drain(nil); !errors.Is(err, ErrBadMagic) {
		t.Errorf("empty input: err = %v, want ErrBadMagic", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if err := drain(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong magic: err = %v, want ErrBadMagic", err)
	}
	if err := drain(good[:len(good)-3]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated payload: err = %v, want ErrCorrupt", err)
	}
	if err := drain(good[:len(magic)+4]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated header: err = %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0x01
	if err := drain(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flipped payload bit: err = %v, want ErrCorrupt", err)
	}
}

func TestShardOfRange(t *testing.T) {
	for _, shards := range []int{1, 2, 7, 64} {
		hit := make([]bool, shards)
		for k := uint32(0); k < 1<<16; k++ {
			s := shardOf(k, shards)
			if s < 0 || s >= shards {
				t.Fatalf("shardOf(%d, %d) = %d out of range", k, shards, s)
			}
			hit[s] = true
		}
		for s, ok := range hit {
			if !ok {
				t.Errorf("shards=%d: shard %d never hit", shards, s)
			}
		}
	}
}

// TestGenerateMatchesOracle: the streaming generate path must emit
// byte-identical CSV to WriteCSV over the in-memory dataset.
func TestGenerateMatchesOracle(t *testing.T) {
	cfg := testGenConfig(7)
	_, want := oracleCSV(t, cfg)
	var got bytes.Buffer
	if err := Generate(GenConfig{Gen: cfg}, &got); err != nil {
		t.Fatalf("stream Generate: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("stream CSV differs from oracle (%d vs %d bytes)", got.Len(), len(want))
	}
}

// TestGenerateWorkerInvariance: the fan-out width must not change a byte
// of the CSV or of the gen-*.bin spills, and the CSV is the oracle's.
func TestGenerateWorkerInvariance(t *testing.T) {
	cfg := testGenConfig(3)
	_, want := oracleCSV(t, cfg)
	var spills map[string][]byte
	for _, workers := range []int{1, 2, 9} {
		c := cfg
		c.Workers = workers
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := Generate(GenConfig{Gen: c, SpillDir: dir}, &buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("workers=%d: CSV differs from oracle", workers)
		}
		got := readSpills(t, dir, "gen-*.bin")
		if spills == nil {
			spills = got
		}
		diffSpills(t, spills, got, workers)
	}
}

// readSpills reads every file in dir that matches pattern, by name.
func readSpills(t *testing.T, dir, pattern string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s under %s (err=%v)", pattern, dir, err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// diffSpills fails unless got holds the same files with the same bytes
// as want.
func diffSpills(t *testing.T, want, got map[string][]byte, workers int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d spill files, want %d", workers, len(got), len(want))
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			t.Fatalf("workers=%d: %s differs (%d vs %d bytes)", workers, name, len(got[name]), len(b))
		}
	}
}

func TestGenerateValidatesConfig(t *testing.T) {
	bad := testGenConfig(1)
	bad.Days = 0
	if err := Generate(GenConfig{Gen: bad}, &bytes.Buffer{}); err == nil {
		t.Error("zero-day window accepted")
	}
}

// renderReport serializes a report the way the CLI does, so comparing
// streams and oracle reduces to comparing bytes.
func renderReport(t *testing.T, r *cdn.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnalyzeMatchesOracle: the sharded streaming analysis must render the
// exact report the in-memory oracle produces, with and without the
// per-operator table, at several shard widths.
func TestAnalyzeMatchesOracle(t *testing.T) {
	cfg := testGenConfig(7)
	ds, csv := oracleCSV(t, cfg)
	in := filepath.Join(t.TempDir(), "assocs.csv")
	if err := os.WriteFile(in, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	const threshold = 350
	wantTable := renderReport(t, cdn.BuildReport(ds.Assocs, ds.BGP, threshold, nil))
	wantPlain := renderReport(t, cdn.BuildReport(ds.Assocs, nil, threshold, nil))

	for _, shards := range []int{1, 5, 64} {
		rep, err := Analyze(AnalyzeConfig{In: in, Shards: shards, Threshold: threshold, Table: ds.BGP})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := renderReport(t, rep); !bytes.Equal(got, wantTable) {
			t.Fatalf("shards=%d: report differs from oracle:\n got: %s\nwant: %s", shards, got, wantTable)
		}
	}
	rep, err := Analyze(AnalyzeConfig{In: in, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderReport(t, rep); !bytes.Equal(got, wantPlain) {
		t.Fatalf("no-table report differs from oracle:\n got: %s\nwant: %s", got, wantPlain)
	}
}

// TestAnalyzeWorkerInvariance: the fan-out width must not change the
// report, nor a byte of the shard-*.bin partition spills or the
// run-*.bin sorted runs.
func TestAnalyzeWorkerInvariance(t *testing.T) {
	cfg := testGenConfig(5)
	ds, csv := oracleCSV(t, cfg)
	in := filepath.Join(t.TempDir(), "assocs.csv")
	if err := os.WriteFile(in, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, cdn.BuildReport(ds.Assocs, ds.BGP, 350, nil))
	var shards, runs map[string][]byte
	for _, workers := range []int{1, 2, 9} {
		dir := t.TempDir()
		rep, err := Analyze(AnalyzeConfig{In: in, Shards: 16, Workers: workers, Threshold: 350, Table: ds.BGP, SpillDir: dir})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := renderReport(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: report differs from oracle", workers)
		}
		gotShards, gotRuns := readSpills(t, dir, "shard-*.bin"), readSpills(t, dir, "run-*.bin")
		if shards == nil {
			shards, runs = gotShards, gotRuns
		}
		diffSpills(t, shards, gotShards, workers)
		diffSpills(t, runs, gotRuns, workers)
	}
}

// TestAnalyzeBadLineMidFile: a bad line halfway through the input fails
// the partition at every worker count with the serial scan's error, and
// journals nothing, so a resume over the repaired input rewrites every
// shard-*.bin to the bytes of an uninterrupted run instead of trusting
// the partial files.
func TestAnalyzeBadLineMidFile(t *testing.T) {
	cfg := testGenConfig(17)
	ds, csv := oracleCSV(t, cfg)
	base := t.TempDir()
	cut := bytes.IndexByte(csv[len(csv)/2:], '\n') + len(csv)/2 + 1
	bad := append(append(append([]byte{}, csv[:cut]...), "not,a,row\n"...), csv[cut:]...)
	badLine := bytes.Count(csv[:cut], []byte{'\n'}) + 1
	wantErr := "cdn: line " + strconv.Itoa(badLine) + ": "
	in := filepath.Join(base, "assocs.csv")
	want := renderReport(t, cdn.BuildReport(ds.Assocs, ds.BGP, 350, nil))

	cleanDir := t.TempDir()
	if err := os.WriteFile(in, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(AnalyzeConfig{In: in, Shards: 8, Threshold: 350, Table: ds.BGP, SpillDir: cleanDir}); err != nil {
		t.Fatal(err)
	}
	clean := readSpills(t, cleanDir, "shard-*.bin")

	if err := os.WriteFile(in, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 9} {
		ckpt := filepath.Join(base, "ckpt-"+strconv.Itoa(workers))
		run, err := checkpoint.Open(ckpt, testKey(17), json.RawMessage(`{}`), nil)
		if err != nil {
			t.Fatal(err)
		}
		acfg := AnalyzeConfig{In: in, Shards: 8, Workers: workers, Threshold: 350, Table: ds.BGP, Checkpoint: run}
		_, err = Analyze(acfg)
		run.Close()
		if err == nil || !strings.HasPrefix(err.Error(), wantErr) {
			t.Fatalf("workers=%d: err = %v, want prefix %q", workers, err, wantErr)
		}
		// The partial shard files are still on disk; the journal must
		// not vouch for them.
		readSpills(t, filepath.Join(ckpt, "spill"), "shard-*.bin")

		if err := os.WriteFile(in, csv, 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, err := checkpoint.Open(ckpt, testKey(17), json.RawMessage(`{}`), nil)
		if err != nil {
			t.Fatal(err)
		}
		acfg.Checkpoint = resumed
		rep, err := Analyze(acfg)
		resumed.Close()
		if err != nil {
			t.Fatalf("workers=%d: resumed Analyze: %v", workers, err)
		}
		if got := renderReport(t, rep); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: resumed report differs from oracle", workers)
		}
		diffSpills(t, clean, readSpills(t, filepath.Join(ckpt, "spill"), "shard-*.bin"), workers)
		if err := os.WriteFile(in, bad, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAnalyzeNoInput(t *testing.T) {
	if _, err := Analyze(AnalyzeConfig{}); err == nil {
		t.Error("empty input path accepted")
	}
}

func testKey(seed int64) checkpoint.Key {
	return checkpoint.Key{Seed: seed, ConfigHash: "stream-test", Code: checkpoint.CodeVersion()}
}

// TestGenerateKillAndResume: a generate run killed at a journal sync point
// must resume from its spill files to byte-identical output.
func TestGenerateKillAndResume(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	cfg := testGenConfig(9)
	_, want := oracleCSV(t, cfg)

	dir := t.TempDir()
	run, err := checkpoint.Open(dir, testKey(9), json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	killed := cfg
	killed.Checkpoint = run
	checkpoint.SetCrashPlan(5, false)
	genErr := Generate(GenConfig{Gen: killed}, &bytes.Buffer{})
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(genErr, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v, want ErrCrashInjected", genErr)
	}
	run.Close()

	resumed, err := checkpoint.Open(dir, testKey(9), json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if !resumed.Resumed() {
		t.Fatal("second open did not resume")
	}
	again := cfg
	again.Checkpoint = resumed
	again.Workers = 3 // resume at a different width
	var got bytes.Buffer
	if err := Generate(GenConfig{Gen: again}, &got); err != nil {
		t.Fatalf("resumed Generate: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("resumed output differs from uninterrupted run")
	}
}

// TestAnalyzeKillAndResume: an analyze run killed mid-shard must resume —
// reusing validated spill files, recomputing invalidated ones — to the
// oracle's exact report.
func TestAnalyzeKillAndResume(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	cfg := testGenConfig(13)
	ds, csv := oracleCSV(t, cfg)
	base := t.TempDir()
	in := filepath.Join(base, "assocs.csv")
	if err := os.WriteFile(in, csv, 0o644); err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, cdn.BuildReport(ds.Assocs, ds.BGP, 350, nil))

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
	if got := renderReport(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("resumed report differs from oracle:\n got: %s\nwant: %s", got, want)
	}
}

// TestGenerateMetricsResumeInvariant: the streaming generate's spans,
// counters, and throughput histograms must be identical whether the run
// completed in one shot or was killed and resumed.
func TestGenerateMetricsResumeInvariant(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	cfg := testGenConfig(29)

	run := func(dir string, killAt int) (obs.Snapshot, error) {
		r, err := checkpoint.Open(dir, testKey(29), json.RawMessage(`{}`), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		o := obs.NewObserver()
		r.SetObserver(o)
		c := cfg
		c.Checkpoint = r
		c.Obs = o
		if killAt > 0 {
			checkpoint.SetCrashPlan(killAt, false)
			defer checkpoint.SetCrashPlan(0, false)
		}
		err = Generate(GenConfig{Gen: c}, &bytes.Buffer{})
		return o.Snapshot(), err
	}

	fresh, err := run(t.TempDir(), 0)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	dir := t.TempDir()
	if _, err := run(dir, 6); !errors.Is(err, checkpoint.ErrCrashInjected) {
		t.Fatalf("killed run: err = %v, want ErrCrashInjected", err)
	}
	resumed, err := run(dir, 0)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !fresh.Equal(resumed) {
		t.Fatalf("resumed metrics differ from uninterrupted run:\nfresh:   %+v\nresumed: %+v", fresh, resumed)
	}
}

// TestResumeRecomputesTamperedSpill: a spill file that changed size since
// it was journaled fails validation on resume and is recomputed, not
// trusted.
func TestResumeRecomputesTamperedSpill(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	cfg := testGenConfig(21)
	_, want := oracleCSV(t, cfg)

	dir := t.TempDir()
	run, err := checkpoint.Open(dir, testKey(21), json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	killed := cfg
	killed.Checkpoint = run
	checkpoint.SetCrashPlan(4, false)
	genErr := Generate(GenConfig{Gen: killed}, &bytes.Buffer{})
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(genErr, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v, want ErrCrashInjected", genErr)
	}
	run.Close()

	// Truncate every journaled spill: the metas replay but their files
	// no longer validate, so the units must recompute.
	spills, err := filepath.Glob(filepath.Join(dir, "spill", "gen-*.bin"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("no spill files to tamper with (err=%v)", err)
	}
	for _, p := range spills {
		if err := os.Truncate(p, 1); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := checkpoint.Open(dir, testKey(21), json.RawMessage(`{}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	again := cfg
	again.Checkpoint = resumed
	var got bytes.Buffer
	if err := Generate(GenConfig{Gen: again}, &got); err != nil {
		t.Fatalf("resumed Generate: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("resume with tampered spills produced wrong output")
	}
}
