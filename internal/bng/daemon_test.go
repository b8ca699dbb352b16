package bng

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"testing"

	"dynamips/internal/bng/stripe"
)

// testConfig is a small three-group config exercising both backends
// and both families.
func testConfig(seed uint64) Config {
	cfg := DefaultConfig(3000, seed)
	cfg.ShardBits = 4
	return cfg
}

func churned(t *testing.T, cfg Config, opt Options, hours int64) *Daemon {
	t.Helper()
	d, err := New(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Churn(hours); err != nil {
		t.Fatal(err)
	}
	return d
}

func snapshotBytes(t *testing.T, d *Daemon) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func statsBytes(t *testing.T, d *Daemon) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteStats(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChurnProducesActivity sanity-checks the engine: sessions attach,
// renew, renumber and flap over a day of virtual time.
func TestChurnProducesActivity(t *testing.T) {
	d := churned(t, testConfig(7), Options{Workers: 4, RoundHours: 6}, 24)
	v := d.Stats()
	if v.VirtualHours != 24 {
		t.Errorf("VirtualHours = %d, want 24", v.VirtualHours)
	}
	if v.Subscribers != 3000 {
		t.Errorf("Subscribers = %d, want 3000", v.Subscribers)
	}
	if v.ActiveSessions < v.Subscribers*9/10 {
		t.Errorf("ActiveSessions = %d, want >= 90%% of %d", v.ActiveSessions, v.Subscribers)
	}
	if v.Events.Attaches != uint64(v.Subscribers) {
		t.Errorf("Attaches = %d, want %d", v.Events.Attaches, v.Subscribers)
	}
	if v.Events.Renews == 0 || v.Events.Renumbers == 0 || v.Events.Flaps == 0 {
		t.Errorf("expected renew/renumber/flap activity, got %+v", v.Events)
	}
	if v.Events.V4Changes == 0 {
		t.Errorf("expected v4 address changes, got %+v", v.Events)
	}
	// Sessions must carry addresses inside their group pools.
	_, views := d.Sessions(0, 50)
	active := 0
	for _, sv := range views {
		if !sv.Active {
			continue
		}
		active++
		addr, err := netip.ParseAddr(sv.Addr4)
		if err != nil {
			t.Fatalf("session %d: bad addr4 %q", sv.Key, sv.Addr4)
		}
		if !d.cfg.Groups[sv.Key>>32].V4.Network.Contains(addr) {
			t.Errorf("session %d: %s outside group pool", sv.Key, sv.Addr4)
		}
	}
	if active == 0 {
		t.Error("no active sessions in first page")
	}
}

// TestSessionsClampsLimit: a Go caller's limit is clamped to the slots
// left, so math.MaxInt neither overflows offset+limit nor sizes the page,
// and the page reads the round boundary's table.
func TestSessionsClampsLimit(t *testing.T) {
	d := churned(t, testConfig(7), Options{Workers: 2, RoundHours: 6}, 6)
	v := d.Stats()
	hours, page := d.Sessions(1, math.MaxInt)
	if hours != 6 {
		t.Errorf("page hour %d, want 6", hours)
	}
	if len(page) != v.Subscribers-1 {
		t.Fatalf("got %d slots, want the %d after slot 0", len(page), v.Subscribers-1)
	}
	if page[0].Index != 1 {
		t.Errorf("first slot index %d, want 1", page[0].Index)
	}
	_, head := d.Sessions(0, 1)
	active := 0
	for _, sv := range append(head, page...) {
		if sv.Active {
			active++
		}
	}
	if active != v.ActiveSessions {
		t.Errorf("%d active slots, the cut holds %d sessions", active, v.ActiveSessions)
	}
}

// TestWorkersIdentity is the tentpole determinism proof at unit scale:
// byte-identical table snapshots and /stats output across -workers.
func TestWorkersIdentity(t *testing.T) {
	cfg := testConfig(42)
	ref := churned(t, cfg, Options{Workers: 1, RoundHours: 5}, 24)
	wantSnap := snapshotBytes(t, ref)
	wantStats := statsBytes(t, ref)
	for _, workers := range []int{2, 4, 16} {
		d := churned(t, cfg, Options{Workers: workers, RoundHours: 5}, 24)
		if !bytes.Equal(snapshotBytes(t, d), wantSnap) {
			t.Errorf("workers=%d: snapshot differs from workers=1", workers)
		}
		if !bytes.Equal(statsBytes(t, d), wantStats) {
			t.Errorf("workers=%d: stats differ from workers=1", workers)
		}
	}
}

// TestRoundGranularityInvariance: state at hour H is independent of the
// round size used to get there (rounds are stats boundaries, not
// scheduling boundaries).
func TestRoundGranularityInvariance(t *testing.T) {
	cfg := testConfig(9)
	a := churned(t, cfg, Options{Workers: 4, RoundHours: 1}, 12)
	b := churned(t, cfg, Options{Workers: 4, RoundHours: 12}, 12)
	if !bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, b)) {
		t.Error("snapshot differs between RoundHours=1 and RoundHours=12")
	}
	if !bytes.Equal(statsBytes(t, a), statsBytes(t, b)) {
		t.Error("stats differ between RoundHours=1 and RoundHours=12")
	}
}

// TestResumeReplayIdentity: a daemon killed after a watermark and
// rebuilt from scratch replays to the same bytes, and continues to the
// same final state as an uninterrupted run.
func TestResumeReplayIdentity(t *testing.T) {
	cfg := testConfig(17)
	dir := t.TempDir()

	ref := churned(t, cfg, Options{Workers: 4, RoundHours: 4}, 24)

	// First incarnation: churn half way, then "crash" (drop it).
	first, err := New(cfg, Options{Workers: 2, RoundHours: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Churn(12); err != nil {
		t.Fatal(err)
	}
	midSnap := snapshotBytes(t, first)

	// Second incarnation resumes by replay.
	second, err := New(cfg, Options{Workers: 8, RoundHours: 4, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h, err := second.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if h != 12 {
		t.Fatalf("Resume() = %d hours, want 12", h)
	}
	if !bytes.Equal(snapshotBytes(t, second), midSnap) {
		t.Error("replayed snapshot differs from pre-crash snapshot")
	}
	if err := second.Churn(24); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, second), snapshotBytes(t, ref)) {
		t.Error("resumed run's final snapshot differs from uninterrupted run")
	}
	if !bytes.Equal(statsBytes(t, second), statsBytes(t, ref)) {
		t.Error("resumed run's final stats differ from uninterrupted run")
	}
}

// TestResumeMismatch: a watermark from a different config is refused.
func TestResumeMismatch(t *testing.T) {
	dir := t.TempDir()
	a, err := New(testConfig(1), Options{RoundHours: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Churn(2); err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig(2), Options{RoundHours: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Resume(); !errors.Is(err, ErrWatermarkMismatch) {
		t.Errorf("Resume with foreign watermark: got %v, want ErrWatermarkMismatch", err)
	}
}

// TestResumeWithoutCheckpoint is a no-op resume.
func TestResumeWithoutCheckpoint(t *testing.T) {
	d, err := New(testConfig(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := d.Resume(); err != nil || h != 0 {
		t.Errorf("Resume() = %d, %v; want 0, nil", h, err)
	}
}

// TestSnapshotRoundTripThroughCodec: the daemon's snapshot decodes back
// to the table's exact records.
func TestSnapshotRoundTripThroughCodec(t *testing.T) {
	d := churned(t, testConfig(3), Options{Workers: 4, RoundHours: 6}, 6)
	raw := snapshotBytes(t, d)
	records, err := stripe.DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := d.Table().SnapshotSorted()
	if len(records) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(records), len(want))
	}
	for i := range want {
		if records[i] != want[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, records[i], want[i])
		}
	}
}

func TestHTTPAPI(t *testing.T) {
	d := churned(t, testConfig(5), Options{Workers: 4, RoundHours: 6}, 6)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	c := NewClient(srv.URL, srv.Client())

	t.Run("stats", func(t *testing.T) {
		v, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		want := d.Stats()
		if v.VirtualHours != want.VirtualHours || v.TableHash != want.TableHash || v.ActiveSessions != want.ActiveSessions {
			t.Errorf("client stats %+v != daemon stats %+v", v, want)
		}
	})

	t.Run("pools", func(t *testing.T) {
		pools, err := c.Pools()
		if err != nil {
			t.Fatal(err)
		}
		if len(pools) != 6 { // 3 groups × 2 families
			t.Fatalf("got %d pools, want 6", len(pools))
		}
		for _, p := range pools {
			if _, err := netip.ParsePrefix(p.Network); err != nil {
				t.Errorf("pool %s/%d: bad network %q", p.Group, p.Family, p.Network)
			}
			if p.Capacity == 0 {
				t.Errorf("pool %s/%d: zero capacity", p.Group, p.Family)
			}
			if p.Active < 0 || uint64(p.Active) > p.Capacity {
				t.Errorf("pool %s/%d: active %d outside [0, %d]", p.Group, p.Family, p.Active, p.Capacity)
			}
		}
	})

	t.Run("sessions-pagination", func(t *testing.T) {
		seen := 0
		lastKey := uint64(0)
		pages := 0
		err := c.AllSessions(700, func(p SessionsPage) error {
			pages++
			if p.Total != 3000 {
				t.Errorf("Total = %d, want 3000", p.Total)
			}
			for i, s := range p.Sessions {
				if seen > 0 || i > 0 {
					if s.Key <= lastKey {
						t.Fatalf("keys not ascending: %d after %d", s.Key, lastKey)
					}
				}
				lastKey = s.Key
			}
			seen += len(p.Sessions)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != 3000 {
			t.Errorf("walked %d sessions, want 3000", seen)
		}
		if pages != 5 { // ceil(3000/700)
			t.Errorf("walked %d pages, want 5", pages)
		}
	})

	t.Run("sessions-bad-params", func(t *testing.T) {
		for _, q := range []string{"?offset=-1", "?offset=x", "?limit=0", "?limit=y"} {
			resp, err := srv.Client().Get(srv.URL + "/sessions" + q)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 400 {
				t.Errorf("GET /sessions%s: status %d, want 400", q, resp.StatusCode)
			}
		}
	})

	t.Run("limit-clamped", func(t *testing.T) {
		p, err := c.Sessions(0, MaxPageLimit*10)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Sessions) != MaxPageLimit {
			t.Errorf("got %d sessions, want clamp at %d", len(p.Sessions), MaxPageLimit)
		}
	})

	t.Run("method-not-allowed", func(t *testing.T) {
		for _, path := range []string{"/stats", "/pools", "/sessions", "/ha", "/snapshot", "/sketch"} {
			resp, err := srv.Client().Post(srv.URL+path, "text/plain", bytes.NewReader(nil))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 405 {
				t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
			}
			// A GET route answers HEAD too.
			if resp, err = srv.Client().Head(srv.URL + path); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("HEAD %s: status %d, want 200", path, resp.StatusCode)
			}
		}
	})

	t.Run("stats-json-canonical", func(t *testing.T) {
		resp, err := srv.Client().Get(srv.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(raw, statsBytes(t, d)) {
			t.Error("/stats body differs from WriteStats output")
		}
	})
}

func TestValidateErrors(t *testing.T) {
	base := func() Config { return testConfig(1) }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"shard-bits", func(c *Config) { c.ShardBits = 15 }},
		{"no-groups", func(c *Config) { c.Groups = nil }},
		{"no-name", func(c *Config) { c.Groups[0].Name = "" }},
		{"no-subs", func(c *Config) { c.Groups[0].Subscribers = 0 }},
		{"bad-backend", func(c *Config) { c.Groups[0].Backend = "pppoe" }},
		{"v6-as-v4", func(c *Config) { c.Groups[0].V4.Network = netip.MustParsePrefix("2001:db8::/32") }},
		{"zero-lease", func(c *Config) { c.Groups[0].V4.LeaseSeconds = 0 }},
		{"v4-pool-too-small", func(c *Config) { c.Groups[0].V4.Network = netip.MustParsePrefix("10.0.0.0/24") }},
		{"v4-unsplittable", func(c *Config) { c.Groups[0].V4.Network = netip.MustParsePrefix("10.0.0.0/28") }},
		{"v4-as-v6", func(c *Config) { c.Groups[0].V6.Network = netip.MustParsePrefix("10.0.0.0/8") }},
		{"delegated-too-long", func(c *Config) { c.Groups[0].V6.DelegatedLen = 96 }},
		{"v6-pool-too-small", func(c *Config) { c.Groups[0].V6.Network = netip.MustParsePrefix("2001:db8::/52") }},
		{"zero-renumber", func(c *Config) { c.Groups[0].RenumberMeanHours = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted a broken config")
			}
		})
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected the test config: %v", err)
	}
}

func TestDefaultConfigValid(t *testing.T) {
	for _, subs := range []int{10, 1000, 100_000, 1_000_000} {
		cfg := DefaultConfig(subs, 1)
		if err := cfg.Validate(); err != nil {
			t.Errorf("DefaultConfig(%d): %v", subs, err)
		}
	}
}

// TestStatsJSONStable pins the stats encoding: parsing it back yields
// the same view (guards the canonical-bytes contract the crash test
// relies on).
func TestStatsJSONStable(t *testing.T) {
	d := churned(t, testConfig(11), Options{Workers: 2, RoundHours: 3}, 6)
	raw := statsBytes(t, d)
	var v StatsView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.TableHash != d.Stats().TableHash {
		t.Errorf("round-tripped TableHash %q != %q", v.TableHash, d.Stats().TableHash)
	}
	if _, err := strconv.ParseUint(v.TableHash, 16, 64); err != nil {
		t.Errorf("TableHash %q is not 64-bit hex: %v", v.TableHash, err)
	}
}
