package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynamips/internal/bng"
)

// bngArgs is the small-but-complete daemon run the crash test uses:
// both backends, both families, several rounds.
func bngArgs(workers int, ckpt, statsOut, snapOut string) []string {
	args := []string{
		"-subscribers", "2000", "-shards", "4", "-seed", "77",
		"-churn-hours", "8", "-round-hours", "2",
		"-workers", fmt.Sprint(workers),
		"-stats-out", statsOut,
		"-snapshot-out", snapOut,
	}
	if ckpt != "" {
		args = append(args, "-checkpoint", ckpt)
	}
	return args
}

func readStatsHours(t *testing.T, path string) int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		VirtualHours int64 `json:"virtual_hours"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding %s: %v", path, err)
	}
	return v.VirtualHours
}

// TestServeBNGSigtermResume mirrors TestKillAndResume for the daemon:
// a SIGTERM mid-churn must drain at a round boundary (the command
// returns nil, not an error), persist the watermark and partial
// outputs, and a restarted daemon with the same flags — at a different
// worker count — must resume by replay and finish with -stats-out and
// -snapshot-out byte-identical to an uninterrupted reference run.
func TestServeBNGSigtermResume(t *testing.T) {
	base := t.TempDir()
	refStats := filepath.Join(base, "ref-stats.json")
	refSnap := filepath.Join(base, "ref-snap.bin")
	if err := cmdServeBNG(bngArgs(2, "", refStats, refSnap)); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	wantStats, err := os.ReadFile(refStats)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := os.ReadFile(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	if h := readStatsHours(t, refStats); h != 8 {
		t.Fatalf("reference run ended at hour %d, want 8", h)
	}

	// Interrupted run: deliver a real SIGTERM to ourselves after the
	// hour-2 round, then give the runtime a moment to route it to the
	// command's signal channel before the round loop polls it.
	ckpt := filepath.Join(base, "ckpt")
	midStats := filepath.Join(base, "mid-stats.json")
	midSnap := filepath.Join(base, "mid-snap.bin")
	fired := false
	bngRoundHook = func(hours int64) {
		if fired || hours < 2 {
			return
		}
		fired = true
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Errorf("sending SIGTERM: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}
	defer func() { bngRoundHook = nil }()
	if err := cmdServeBNG(bngArgs(2, ckpt, midStats, midSnap)); err != nil {
		t.Fatalf("interrupted run: SIGTERM must drain gracefully, got %v", err)
	}
	bngRoundHook = nil
	if !fired {
		t.Fatal("round hook never fired")
	}
	midHours := readStatsHours(t, midStats)
	if midHours >= 8 {
		t.Fatalf("interrupted run churned to hour %d; SIGTERM did not interrupt", midHours)
	}

	// Restarted run resumes from the watermark — at a different worker
	// count — and must reproduce the reference bytes.
	finStats := filepath.Join(base, "fin-stats.json")
	finSnap := filepath.Join(base, "fin-snap.bin")
	if err := cmdServeBNG(bngArgs(5, ckpt, finStats, finSnap)); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	gotStats, err := os.ReadFile(finStats)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := os.ReadFile(finSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Errorf("resumed /stats output differs from uninterrupted run:\n got: %s\nwant: %s", gotStats, wantStats)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Error("resumed session-table snapshot differs from uninterrupted run")
	}
}

// TestServeBNGRejectsArgs: stray positional arguments and flag values
// serve-bng would mis-run are errors. Each call runs under a deadline,
// so a value that makes the daemon spin fails the row instead of
// hanging the package.
func TestServeBNGRejectsArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-subscribers", "100", "bogus"},
		{"-subscribers", "2000", "-round-hours", "0", "-churn-hours", "2"},
		{"-subscribers", "100", "-round-hours", "-3", "-churn-hours", "2"},
		{"-subscribers", "0", "-churn-hours", "1"},
		{"-subscribers", "-5", "-churn-hours", "1"},
		{"-subscribers", "50", "-churn-hours", "1"},
		{"-subscribers", "99", "-churn-hours", "1"},
		{"-subscribers", "100", "-churn-hours", "-1"},
		{"-subscribers", "100", "-churn-hours", "1", "-standby", "http://127.0.0.1:1", "-max-misses", "0"},
		{"-subscribers", "100", "-churn-hours", "1", "-standby", "http://127.0.0.1:1", "-poll", "0s"},
		{"-subscribers", "100", "-churn-hours", "1", "-standby", "http://127.0.0.1:1", "-poll", "-1s"},
	} {
		done := make(chan error, 1)
		go func() { done <- cmdServeBNG(args) }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("serve-bng %q: accepted", args)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("serve-bng %q: still running after 10s", args)
		}
	}

	// Below the floor the error names it; at the floor the run is the
	// size asked for.
	floor := fmt.Sprint(bng.MinSubscribers)
	if err := cmdServeBNG([]string{"-subscribers", fmt.Sprint(bng.MinSubscribers - 1), "-churn-hours", "1"}); err == nil || !strings.Contains(err.Error(), floor) {
		t.Errorf("-subscribers below the floor: error %v does not name %s", err, floor)
	}
	statsOut := filepath.Join(t.TempDir(), "stats.json")
	if err := cmdServeBNG([]string{"-subscribers", floor, "-shards", "0", "-churn-hours", "1", "-stats-out", statsOut}); err != nil {
		t.Fatalf("-subscribers %s: %v", floor, err)
	}
	raw, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		Subscribers int `json:"subscribers"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.Subscribers != bng.MinSubscribers {
		t.Errorf("-subscribers %s ran %d subscribers", floor, v.Subscribers)
	}
}
