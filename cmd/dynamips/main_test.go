package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
)

func TestCmdProfiles(t *testing.T) {
	if err := cmdProfiles(nil); err != nil {
		t.Fatalf("cmdProfiles: %v", err)
	}
}

func TestGenAtlasThenAnalyze(t *testing.T) {
	out := filepath.Join(t.TempDir(), "series.jsonl")
	if err := cmdGen([]string{"atlas", "-profile", "Netcologne", "-probes", "25", "-hours", "4000", "-o", out}); err != nil {
		t.Fatalf("gen atlas: %v", err)
	}
	st, err := os.Stat(out)
	if err != nil || st.Size() == 0 {
		t.Fatalf("output missing or empty: %v", err)
	}
	if err := cmdAnalyze([]string{out}); err != nil {
		t.Fatalf("analyze: %v", err)
	}
}

func TestGenAtlasRawRecords(t *testing.T) {
	out := filepath.Join(t.TempDir(), "records.jsonl")
	if err := cmdGen([]string{"atlas", "-profile", "Versatel", "-probes", "12", "-hours", "1500", "-raw", "-o", out}); err != nil {
		t.Fatalf("gen atlas -raw: %v", err)
	}
	st, err := os.Stat(out)
	if err != nil || st.Size() == 0 {
		t.Fatalf("raw output missing: %v", err)
	}
}

func TestGenCDNThenAnalyzeCDN(t *testing.T) {
	out := filepath.Join(t.TempDir(), "assoc.csv")
	if err := cmdGen([]string{"cdn", "-scale", "0.03", "-days", "60", "-o", out}); err != nil {
		t.Fatalf("gen cdn: %v", err)
	}
	if err := cmdAnalyzeCDN([]string{out}); err != nil {
		t.Fatalf("analyze-cdn: %v", err)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdGen(nil); err == nil {
		t.Error("gen without kind accepted")
	}
	if err := cmdGen([]string{"bogus"}); err == nil {
		t.Error("gen bogus accepted")
	}
	if err := cmdGen([]string{"atlas", "-profile", "NoSuchISP", "-o", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := cmdAnalyze(nil); err == nil {
		t.Error("analyze without file accepted")
	}
	if err := cmdAnalyze([]string{"/nonexistent/file.jsonl"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := cmdAnalyzeCDN(nil); err == nil {
		t.Error("analyze-cdn without file accepted")
	}
	if err := cmdExperiment(nil); err == nil {
		t.Error("experiment without name accepted")
	}
	if err := cmdExperiment([]string{"no-such-experiment"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestCmdExperimentSmall(t *testing.T) {
	args := []string{"-hours", "4000", "-probe-scale", "0.05", "sanitize"}
	if err := cmdExperiment(args); err != nil {
		t.Fatalf("experiment sanitize: %v", err)
	}
}

func TestAnalyzeRIPEFormat(t *testing.T) {
	in := filepath.Join(t.TempDir(), "ripe.jsonl")
	data := `{"prb_id":7,"timestamp":3600,"src_addr":"192.168.1.9","result":[{"af":4,"hdr":["X-Client-IP: 81.10.0.1"]}]}
`
	// Repeat enough hours to clear the one-month sanitizer minimum.
	var lines []byte
	for h := int64(0); h < 800; h++ {
		lines = append(lines, []byte(
			`{"prb_id":7,"timestamp":`+fmt.Sprint(3600*h)+`,"src_addr":"192.168.1.9","result":[{"af":4,"hdr":["X-Client-IP: 81.10.0.1"]}]}`+"\n")...)
	}
	_ = data
	if err := os.WriteFile(in, lines, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-format", "ripe", "-epoch", "0", in}); err != nil {
		t.Fatalf("analyze ripe: %v", err)
	}
	if err := cmdAnalyze([]string{"-format", "bogus", in}); err == nil {
		t.Error("bogus format accepted")
	}
}

func TestAnalyzeRecordsFormat(t *testing.T) {
	dir := t.TempDir()
	series := filepath.Join(dir, "records.jsonl")
	if err := cmdGen([]string{"atlas", "-profile", "Versatel", "-probes", "10", "-hours", "1200", "-raw", "-o", series}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdAnalyze([]string{"-format", "records", series}); err != nil {
		t.Fatalf("analyze records: %v", err)
	}
	// A record no series can hold (here one with no echoed address) is an
	// error naming its line, not a panic in the routing-table fallback.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(`{"prb_id":1,"hour":0,"af":4,"src_addr":"192.168.1.2"}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-format", "records", bad}); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("analyze -format records of a record with no echo = %v, want an error naming line 1", err)
	}
}

func TestAnalyzeCDNWithPfx2as(t *testing.T) {
	dir := t.TempDir()
	assoc := filepath.Join(dir, "assoc.csv")
	if err := cmdGen([]string{"cdn", "-scale", "0.02", "-days", "40", "-o", assoc}); err != nil {
		t.Fatalf("gen cdn: %v", err)
	}
	pfx := filepath.Join(dir, "pfx2as.txt")
	table := "87.128.0.0\t10\t3320\n2003::\t19\t3320\n"
	if err := os.WriteFile(pfx, []byte(table), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyzeCDN([]string{"-pfx2as", pfx, assoc}); err != nil {
		t.Fatalf("analyze-cdn with pfx2as: %v", err)
	}
}

// oracleCSV is the in-memory oracle of 'gen cdn -seed seed -scale scale
// -days days': the CSV encoding of cdn.Generate's dataset.
func oracleCSV(t *testing.T, seed int64, scale float64, days int) []byte {
	t.Helper()
	cfg := cdn.DefaultGenConfig(seed)
	cfg.Scale = scale
	cfg.Days = days
	ds, err := cdn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdn.WriteCSV(&buf, ds.Assocs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleReport renders the in-memory oracle's analyze-cdn report over
// an association CSV.
func oracleReport(t *testing.T, csv []byte, table *bgp.Table, threshold int) []byte {
	t.Helper()
	assocs, err := cdn.ReadCSV(bytes.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cdn.BuildReport(assocs, table, threshold, nil).Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGenCDNStreamMatchesInMemory: gen cdn and analyze-cdn, which always
// stream, must reproduce the in-memory oracle byte for byte — the CSV of
// cdn.Generate's dataset, and cdn.BuildReport's report with and without
// a pfx2as table. The retired -stream flag must be rejected.
func TestGenCDNStreamMatchesInMemory(t *testing.T) {
	base := t.TempDir()
	csvPath := filepath.Join(base, "assoc.csv")
	if err := cmdGen([]string{"cdn", "-scale", "0.02", "-days", "30",
		"-spill-dir", filepath.Join(base, "spill"), "-o", csvPath}); err != nil {
		t.Fatalf("gen cdn: %v", err)
	}
	want := oracleCSV(t, 1, 0.02, 30)
	got, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("gen cdn output differs from the in-memory oracle")
	}

	const pfx2asTable = "87.128.0.0\t10\t3320\n2003::\t19\t3320\n"
	pfx := filepath.Join(base, "pfx2as.txt")
	if err := os.WriteFile(pfx, []byte(pfx2asTable), 0o600); err != nil {
		t.Fatal(err)
	}
	table, err := bgp.ReadPfx2as(strings.NewReader(pfx2asTable))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags []string
		table *bgp.Table
	}{{nil, nil}, {[]string{"-pfx2as", pfx}, table}} {
		rep := filepath.Join(base, "rep.txt")
		args := append([]string{"-shards", "8", "-mobile-threshold", "200", "-o", rep}, tc.flags...)
		if err := cmdAnalyzeCDN(append(args, csvPath)); err != nil {
			t.Fatalf("analyze-cdn %v: %v", tc.flags, err)
		}
		gotRep, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		if wantRep := oracleReport(t, want, tc.table, 200); !bytes.Equal(gotRep, wantRep) {
			t.Fatalf("analyze-cdn %v report differs from the oracle:\n got: %s\nwant: %s", tc.flags, gotRep, wantRep)
		}
	}

	const unknown = "flag provided but not defined: -stream"
	if err := cmdGen([]string{"cdn", "-stream", "-o", filepath.Join(base, "x.csv")}); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("gen cdn -stream: err = %v, want %q", err, unknown)
	}
	if err := cmdAnalyzeCDN([]string{"-stream", csvPath}); err == nil || !strings.Contains(err.Error(), unknown) {
		t.Errorf("analyze-cdn -stream: err = %v, want %q", err, unknown)
	}
}
