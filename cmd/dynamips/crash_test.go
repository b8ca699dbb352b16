package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dynamips/internal/checkpoint"
	"dynamips/internal/faultnet"
)

// experimentArgs is the small-but-complete pipeline configuration the
// crash tests run: every experiment ("all"), both pipelines, tiny scales.
func experimentArgs(workers int, faults, out, ckpt string) []string {
	args := []string{
		"-hours", "2000", "-probe-scale", "0.03",
		"-cdn-scale", "0.02", "-cdn-days", "30",
		"-workers", fmt.Sprint(workers),
		"-o", out,
	}
	if faults != "" {
		args = append(args, "-faults", faults)
	}
	if ckpt != "" {
		args = append(args, "-checkpoint", ckpt)
	}
	return append(args, "all")
}

// TestKillAndResume is the crash-injection harness: for each worker count
// and fault profile it computes an uninterrupted reference output, then
// repeatedly kills the pipeline at seeded journal sync points (via the
// deterministic crash plan, byte-equivalent to a SIGKILL mid-append) and
// checks that 'dynamips resume' completes the run with output
// byte-identical to the reference — including when the resume runs at a
// different worker count than the killed run.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix is slow")
	}
	defer checkpoint.SetCrashPlan(0, false)
	const killPoints = 3
	for _, faults := range []string{"", "drop=0.1"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("workers=%d,faults=%q", workers, faults), func(t *testing.T) {
				base := t.TempDir()
				ref := filepath.Join(base, "ref.txt")
				if err := cmdExperiment(experimentArgs(workers, faults, ref, "")); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				want, err := os.ReadFile(ref)
				if err != nil {
					t.Fatal(err)
				}

				// Seeded kill points; torn alternates so both crash modes
				// (before the frame write and mid-write) are exercised.
				stream := faultnet.NewStream(uint64(workers)*1000+uint64(len(faults)), 7)
				for k := 0; k < killPoints; k++ {
					killAt := int(stream.IntN(40)) + 1
					torn := k%2 == 1
					dir := filepath.Join(base, fmt.Sprintf("ckpt-%d", k))
					out := filepath.Join(base, fmt.Sprintf("out-%d.txt", k))

					checkpoint.SetCrashPlan(killAt, torn)
					err := cmdExperiment(experimentArgs(workers, faults, out, dir))
					checkpoint.SetCrashPlan(0, false)
					if !errors.Is(err, checkpoint.ErrCrashInjected) {
						t.Fatalf("kill %d (append %d, torn=%v): err = %v, want ErrCrashInjected", k, killAt, torn, err)
					}
					if _, err := os.Stat(out); !os.IsNotExist(err) {
						t.Fatalf("kill %d: crashed run published output (atomic writer leaked): %v", k, err)
					}

					// Resume at the other worker count: the journal prefix
					// plus the determinism contract must reproduce the
					// reference bytes regardless.
					resumeArgs := []string{"-workers", fmt.Sprint(5 - workers), dir}
					if err := cmdResume(resumeArgs); err != nil {
						t.Fatalf("kill %d (append %d, torn=%v): resume: %v", k, killAt, torn, err)
					}
					got, err := os.ReadFile(out)
					if err != nil {
						t.Fatalf("kill %d: resumed output missing: %v", k, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("kill %d (append %d, torn=%v): resumed output differs from uninterrupted run", k, killAt, torn)
					}
				}
			})
		}
	}
}

// TestResumeAfterTrailingCorruption: a journal whose tail was damaged
// after the crash (bit rot, torn sector) must recover by truncation —
// logged, never a panic — and still resume to byte-identical output.
func TestResumeAfterTrailingCorruption(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	base := t.TempDir()
	ref := filepath.Join(base, "ref.txt")
	if err := cmdExperiment(experimentArgs(2, "", ref, "")); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(base, "ckpt")
	out := filepath.Join(base, "out.txt")
	checkpoint.SetCrashPlan(9, false)
	runErr := cmdExperiment(experimentArgs(2, "", out, dir))
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(runErr, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v, want ErrCrashInjected", runErr)
	}

	// Flip the last byte of the atlas journal: the final frame now fails
	// its CRC and recovery must drop it.
	wal := filepath.Join(dir, "atlas.wal")
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := cmdResume([]string{dir}); err != nil {
		t.Fatalf("resume after corruption: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("output after trailing-frame truncation differs from uninterrupted run")
	}
}

// TestResumeErrors covers the resume command's refusal paths.
func TestResumeErrors(t *testing.T) {
	if err := cmdResume(nil); err == nil {
		t.Error("resume without a directory accepted")
	}
	if err := cmdResume([]string{t.TempDir()}); err == nil {
		t.Error("resume of an empty directory accepted")
	}
	// A manifest recording an unknown command kind must be rejected.
	dir := t.TempDir()
	key, err := specKey(runSpec{Kind: "mystery", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run, err := checkpoint.Open(dir, key, []byte(`{"kind":"mystery","seed":3}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	if err := cmdResume([]string{dir}); err == nil {
		t.Error("unknown command kind accepted")
	}
}

// TestGenCDNCheckpointResume exercises the second checkpointed entry
// point: gen cdn with -checkpoint, killed and resumed to the in-memory
// oracle's exact CSV.
func TestGenCDNCheckpointResume(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	base := t.TempDir()
	common := []string{"cdn", "-scale", "0.02", "-days", "30", "-workers", "2"}
	want := oracleCSV(t, 1, 0.02, 30)

	dir := filepath.Join(base, "ckpt")
	out := filepath.Join(base, "out.csv")
	checkpoint.SetCrashPlan(2, true)
	runErr := cmdGen(append(common, "-o", out, "-checkpoint", dir))
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(runErr, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v, want ErrCrashInjected", runErr)
	}
	if err := cmdResume([]string{dir}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed gen cdn output differs from the in-memory oracle")
	}
}

// TestCheckpointStaleKeyStartsFresh: pointing -checkpoint at a directory
// journaled under different flags must not replay its units.
func TestCheckpointStaleKeyStartsFresh(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	base := t.TempDir()
	dir := filepath.Join(base, "ckpt")
	out := filepath.Join(base, "out.csv")
	common := []string{"cdn", "-scale", "0.02", "-days", "30", "-checkpoint", dir}
	checkpoint.SetCrashPlan(2, false)
	err := cmdGen(append(common, "-seed", "1", "-o", out))
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(err, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v", err)
	}
	// Different seed, same directory: must discard and complete cleanly.
	if err := cmdGen(append(common, "-seed", "2", "-o", out)); err != nil {
		t.Fatalf("run with changed seed: %v", err)
	}
	ref := filepath.Join(base, "ref.csv")
	if err := cmdGen([]string{"cdn", "-scale", "0.02", "-days", "30", "-seed", "2", "-o", ref}); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(out)
	want, _ := os.ReadFile(ref)
	if !bytes.Equal(got, want) {
		t.Fatal("stale checkpoint contaminated a re-keyed run")
	}
}

// TestAnalyzeCDNStreamCheckpointResume exercises the third checkpointed
// entry point: analyze-cdn with -checkpoint, killed mid-shard and
// resumed to the in-memory oracle's exact report.
func TestAnalyzeCDNStreamCheckpointResume(t *testing.T) {
	defer checkpoint.SetCrashPlan(0, false)
	base := t.TempDir()
	csv := filepath.Join(base, "assoc.csv")
	data := oracleCSV(t, 1, 0.02, 30)
	if err := os.WriteFile(csv, data, 0o600); err != nil {
		t.Fatal(err)
	}
	want := oracleReport(t, data, nil, 350)

	dir := filepath.Join(base, "ckpt")
	out := filepath.Join(base, "out.txt")
	checkpoint.SetCrashPlan(3, true)
	runErr := cmdAnalyzeCDN([]string{"-shards", "8", "-checkpoint", dir, "-o", out, csv})
	checkpoint.SetCrashPlan(0, false)
	if !errors.Is(runErr, checkpoint.ErrCrashInjected) {
		t.Fatalf("err = %v, want ErrCrashInjected", runErr)
	}
	if err := cmdResume([]string{dir}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed analyze-cdn report differs from the in-memory oracle")
	}
}
