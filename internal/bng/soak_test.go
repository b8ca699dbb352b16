package bng

import (
	"testing"
	"time"
)

// TestMillionSessionSoak is the ISSUE 8 acceptance gate at full scale:
// the daemon holds 10⁶ concurrent sessions, sustains ≥10⁶ virtual-time
// renewal/renumbering events per second through the churn loop, and
// its session-table hash is identical across worker counts.
//
// It skips under -short, under the race detector, and under coverage
// instrumentation (either slowdown would make the throughput floor
// meaningless); verify.sh and CI run it in a dedicated non-race,
// non-cover step.
func TestMillionSessionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("million-session soak skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("million-session soak skipped under the race detector")
	}
	if testing.CoverMode() != "" {
		t.Skip("million-session soak skipped under coverage instrumentation")
	}
	const (
		subs        = 1_000_000
		attachEnd   = 1  // hour: all subscribers online
		churnEnd    = 25 // hours of renewal-dominated churn
		floorPerSec = 1_000_000.0
	)
	cfg := DefaultConfig(subs, 0xD1CE)

	d, err := New(cfg, Options{Workers: 0, RoundHours: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Attach phase: every subscriber comes online in hour 0.
	if err := d.Churn(attachEnd); err != nil {
		t.Fatal(err)
	}
	v := d.Stats()
	if v.ActiveSessions < subs*95/100 {
		t.Fatalf("after attach: %d active sessions, want >= 95%% of %d", v.ActiveSessions, subs)
	}
	attachEvents := v.Events.Events

	// Churn phase: measure wall-clock throughput over renewal-dominated
	// steady state.
	start := time.Now()
	if err := d.Churn(churnEnd); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	v = d.Stats()
	churnEvents := v.Events.Events - attachEvents
	perSec := float64(churnEvents) / elapsed
	t.Logf("churn: %d events in %.2fs = %.0f events/sec (active=%d renews=%d renumbers=%d flaps=%d)",
		churnEvents, elapsed, perSec, v.ActiveSessions, v.Events.Renews, v.Events.Renumbers, v.Events.Flaps)
	if v.ActiveSessions < subs*90/100 {
		t.Errorf("steady state: %d active sessions, want >= 90%% of %d", v.ActiveSessions, subs)
	}
	if churnEvents < 5_000_000 {
		t.Errorf("churn produced only %d events; the soak should exceed 5M", churnEvents)
	}
	if perSec < floorPerSec {
		t.Errorf("throughput %.0f events/sec below the 1M floor", perSec)
	}

	// Worker-count identity at scale: a second daemon driven with a
	// different fan-out must land on the same table hash.
	d2, err := New(cfg, Options{Workers: 4, RoundHours: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Churn(churnEnd); err != nil {
		t.Fatal(err)
	}
	if h1, h2 := d.Stats().TableHash, d2.Stats().TableHash; h1 != h2 {
		t.Errorf("table hash differs across worker counts: %s vs %s", h1, h2)
	}
}
