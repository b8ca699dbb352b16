package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dynamips/internal/bng"
)

const standbyScenario = "failover-at=4,policy=renumber"

// TestServeBNGStandbyPromotion runs the full warm-standby flow: an
// in-process active daemon serves the API while a serve-bng -standby
// invocation tracks it (hash + codec-level snapshot sync), loses it, and
// promotes itself. The promoted daemon's outputs must be byte-identical
// to an uninterrupted active run with the same flags — the
// lease-assignment equivalent of a hitless takeover.
func TestServeBNGStandbyPromotion(t *testing.T) {
	base := t.TempDir()
	refStats := filepath.Join(base, "ref-stats.json")
	refSnap := filepath.Join(base, "ref-snap.bin")
	ref := []string{
		"-subscribers", "2000", "-shards", "4", "-seed", "77",
		"-churn-hours", "8", "-round-hours", "2", "-workers", "2",
		"-scenario", standbyScenario,
		"-stats-out", refStats, "-snapshot-out", refSnap,
	}
	if err := cmdServeBNG(ref); err != nil {
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

	// The active: an in-process daemon churned past the failover hour,
	// serving the API the standby syncs from.
	cfg := bng.DefaultConfig(2000, 77)
	cfg.ShardBits = 4
	if cfg.Scenario, err = bng.ParseScenario(standbyScenario); err != nil {
		t.Fatal(err)
	}
	active, err := bng.New(cfg, bng.Options{Workers: 2, RoundHours: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := active.Churn(6); err != nil {
		t.Fatal(err)
	}
	api, err := active.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Kill the active shortly after the standby has had a few sync
	// rounds. The exact takeover instant does not matter: the standby
	// replays deterministically, so the post-promotion churn to hour 8
	// lands on the same bytes regardless.
	go func() {
		time.Sleep(400 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		api.Shutdown(ctx) //nolint:errcheck // the poll misses are the point
	}()

	sbStats := filepath.Join(base, "sb-stats.json")
	sbSnap := filepath.Join(base, "sb-snap.bin")
	sb := []string{
		"-subscribers", "2000", "-shards", "4", "-seed", "77",
		"-churn-hours", "8", "-round-hours", "2", "-workers", "5",
		"-scenario", standbyScenario,
		"-standby", fmt.Sprintf("http://%s", api.Addr()),
		"-poll", "50ms", "-max-misses", "2",
		"-stats-out", sbStats, "-snapshot-out", sbSnap,
	}
	if err := cmdServeBNG(sb); err != nil {
		t.Fatalf("standby run: %v", err)
	}

	gotStats, err := os.ReadFile(sbStats)
	if err != nil {
		t.Fatal(err)
	}
	gotSnap, err := os.ReadFile(sbSnap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Errorf("promoted standby /stats differs from uninterrupted active:\n got: %s\nwant: %s", gotStats, wantStats)
	}
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Error("promoted standby session-table snapshot differs from uninterrupted active")
	}
	if h := readStatsHours(t, sbStats); h != 8 {
		t.Errorf("promoted standby ended at hour %d, want 8", h)
	}
}

// TestServeBNGScenarioFlag: a malformed -scenario is rejected before any
// churn.
func TestServeBNGScenarioFlag(t *testing.T) {
	if err := cmdServeBNG([]string{"-scenario", "policy=sideways"}); err == nil {
		t.Error("serve-bng accepted a bogus scenario policy")
	}
	if err := cmdServeBNG([]string{"-scenario", "relay-drop=0.5"}); err == nil {
		t.Error("serve-bng accepted relay-drop without relay-hops")
	}
}

// TestServeBNGStandbyTracksChurningActive: a standby polling every 50ms
// tracks an in-process active that is still churning hourly rounds, so
// its polls land mid-barrier and the active moves on between a poll's
// /ha and its /snapshot. Neither may read as a split brain, and once the
// active is lost the promoted standby must land on the bytes of an
// uninterrupted run.
func TestServeBNGStandbyTracksChurningActive(t *testing.T) {
	const hours = 36
	base := t.TempDir()
	shape := []string{
		"-subscribers", "4000", "-shards", "5", "-seed", "31",
		"-churn-hours", fmt.Sprint(hours), "-round-hours", "1",
	}
	refStats := filepath.Join(base, "ref-stats.json")
	refSnap := filepath.Join(base, "ref-snap.bin")
	if err := cmdServeBNG(append(shape, "-workers", "2", "-stats-out", refStats, "-snapshot-out", refSnap)); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cfg := bng.DefaultConfig(4000, 31)
	cfg.ShardBits = 5
	active, err := bng.New(cfg, bng.Options{Workers: 2, RoundHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	api, err := active.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The active churns one round every 15ms of wall time, then dies.
	churnErr := make(chan error, 1)
	go func() {
		var err error
		for h := int64(1); h <= hours && err == nil; h++ {
			err = active.Churn(h)
			time.Sleep(15 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		api.Shutdown(ctx) //nolint:errcheck // the poll misses are the point
		churnErr <- err
	}()

	sbStats := filepath.Join(base, "sb-stats.json")
	sbSnap := filepath.Join(base, "sb-snap.bin")
	err = cmdServeBNG(append(shape, "-workers", "3",
		"-standby", fmt.Sprintf("http://%s", api.Addr()), "-poll", "50ms", "-max-misses", "2",
		"-stats-out", sbStats, "-snapshot-out", sbSnap))
	if cerr := <-churnErr; cerr != nil {
		t.Fatalf("active churn: %v", cerr)
	}
	if err != nil {
		t.Fatalf("standby run: %v", err)
	}
	for _, f := range [][2]string{{refStats, sbStats}, {refSnap, sbSnap}} {
		want, err := os.ReadFile(f[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(f[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("promoted standby's %s differs from the uninterrupted run's", filepath.Base(f[1]))
		}
	}
}
