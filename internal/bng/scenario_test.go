package bng

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"dynamips/internal/bng/stripe"
)

// scenarioConfig is testConfig plus a scenario.
func scenarioConfig(seed uint64, sc *Scenario) Config {
	cfg := testConfig(seed)
	cfg.Scenario = sc
	return cfg
}

func TestScenarioParse(t *testing.T) {
	cases := []struct {
		spec string
		want Scenario
	}{
		{"failover-at=36:12,policy=renumber", Scenario{FailoverAtHours: []int64{12, 36}, Policy: PolicyRenumber}},
		{"failover-mean=24", Scenario{FailoverMeanHours: 24}},
		{"coa-mean=72,disconnect-mean=200", Scenario{CoAMeanHours: 72, DisconnectMeanHours: 200}},
		{"relay-hops=2,relay-drop=0.05", Scenario{RelayHops: 2, RelayDrop: 0.05}},
	}
	for _, c := range cases {
		sc, err := ParseScenario(c.spec)
		if err != nil {
			t.Fatalf("ParseScenario(%q): %v", c.spec, err)
		}
		if sc == nil {
			t.Fatalf("ParseScenario(%q) = nil", c.spec)
		}
		if !reflect.DeepEqual(*sc, c.want) {
			t.Errorf("ParseScenario(%q) = %+v, want %+v", c.spec, *sc, c.want)
		}
		// String renders back to a spec that re-parses to the same value.
		if _, err := ParseScenario(sc.String()); err != nil {
			t.Errorf("re-parsing String() %q: %v", sc.String(), err)
		}
	}
	if sc, err := ParseScenario(""); err != nil || sc != nil {
		t.Errorf("ParseScenario(\"\") = %v, %v; want nil, nil", sc, err)
	}
	for _, bad := range []string{
		"nope",
		"frob=1",
		"failover-mean=-3",
		"failover-mean=24,failover-at=12",
		"policy=explode",
		"relay-hops=99",
		"relay-drop=0.5", // drop without hops
		"coa-mean=0",
		"relay-hops=2,relay-drop=NaN",
		"coa-mean=Inf",
		"failover-mean=NaN",
		"disconnect-mean=+Inf",
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("ParseScenario(%q) succeeded, want error", bad)
		}
	}
}

// TestEmptyScenarioIdentity: an all-zero scenario consumes no draws, so
// its snapshots match a scenario-free config byte-for-byte.
func TestEmptyScenarioIdentity(t *testing.T) {
	plain := churned(t, testConfig(11), Options{Workers: 4, RoundHours: 6}, 24)
	empty := churned(t, scenarioConfig(11, &Scenario{}), Options{Workers: 4, RoundHours: 6}, 24)
	if !bytes.Equal(snapshotBytes(t, plain), snapshotBytes(t, empty)) {
		t.Error("empty scenario perturbed the snapshot")
	}
}

// TestFailoverPreserveIdentity is half the PR's acceptance property: a
// lease-preserving takeover leaves snapshots byte-identical to an
// uninterrupted run, at every worker count.
func TestFailoverPreserveIdentity(t *testing.T) {
	uninterrupted := churned(t, testConfig(23), Options{Workers: 4, RoundHours: 4}, 12)
	want := snapshotBytes(t, uninterrupted)
	sc := &Scenario{FailoverAtHours: []int64{6}, Policy: PolicyPreserve}
	for _, workers := range []int{1, 4, 16} {
		d := churned(t, scenarioConfig(23, sc), Options{Workers: workers, RoundHours: 4}, 12)
		if !bytes.Equal(snapshotBytes(t, d), want) {
			t.Errorf("workers=%d: preserve-policy failover changed the snapshot", workers)
		}
		if v := d.Stats(); v.Failovers != 1 || v.LastFailoverHour != 6 {
			t.Errorf("workers=%d: failovers=%d last=%d, want 1 at hour 6", workers, v.Failovers, v.LastFailoverHour)
		}
	}
}

// TestFailoverRenumberDeterministic is the other half: a renumbering
// takeover produces seed-reproducible snapshots at every worker count
// and round granularity, different from the uninterrupted run, with
// every active subscriber renumbered.
func TestFailoverRenumberDeterministic(t *testing.T) {
	sc := &Scenario{FailoverAtHours: []int64{6}, Policy: PolicyRenumber}
	ref := churned(t, scenarioConfig(23, sc), Options{Workers: 1, RoundHours: 4}, 12)
	want := snapshotBytes(t, ref)
	wantStats := statsBytes(t, ref)
	for _, workers := range []int{4, 16} {
		d := churned(t, scenarioConfig(23, sc), Options{Workers: workers, RoundHours: 4}, 12)
		if !bytes.Equal(snapshotBytes(t, d), want) {
			t.Errorf("workers=%d: renumber-policy snapshot not reproducible", workers)
		}
		if !bytes.Equal(statsBytes(t, d), wantStats) {
			t.Errorf("workers=%d: renumber-policy stats not reproducible", workers)
		}
	}
	coarse := churned(t, scenarioConfig(23, sc), Options{Workers: 4, RoundHours: 12}, 12)
	if !bytes.Equal(snapshotBytes(t, coarse), want) {
		t.Error("renumber-policy snapshot depends on round granularity")
	}
	uninterrupted := churned(t, testConfig(23), Options{Workers: 4, RoundHours: 4}, 12)
	if bytes.Equal(snapshotBytes(t, uninterrupted), want) {
		t.Error("renumber-policy failover left the snapshot unchanged")
	}
	v := ref.Stats()
	if v.Events.FailoverRenumbers == 0 {
		t.Fatal("no subscribers renumbered by the failover")
	}
	// Mass renumbering must be visible as generation bumps: all but at
	// most one subscriber per (group, shard) move on takeover.
	if v.Events.V4Changes <= uninterrupted.Stats().Events.V4Changes {
		t.Errorf("failover renumbering did not raise v4 changes (%d vs %d)",
			v.Events.V4Changes, uninterrupted.Stats().Events.V4Changes)
	}
}

// TestFailoverRenumberKeepsAtMostOne: a renumbering takeover releases
// each (group, shard)'s active sessions in key order onto a LIFO free
// list, then reacquires them in key order, so the set gets its
// addresses back reversed. Against a scenario-free twin at the takeover
// hour, at most one active subscriber per (group, shard) keeps its IPv4
// address: the middle one of an odd-sized set.
func TestFailoverRenumberKeepsAtMostOne(t *testing.T) {
	sc := &Scenario{FailoverAtHours: []int64{6}, Policy: PolicyRenumber}
	d := churned(t, scenarioConfig(23, sc), Options{Workers: 4, RoundHours: 4}, 6)
	twin := churned(t, testConfig(23), Options{Workers: 4, RoundHours: 4}, 6)
	_, after := d.Snapshot()
	_, before := twin.Snapshot()
	if len(after) != len(before) {
		t.Fatalf("takeover changed the active count: %d vs %d", len(after), len(before))
	}
	shards := d.table.Shards()
	kept := make([]int, len(d.cfg.Groups)*shards)
	total := 0
	for i := range after {
		key := after[i].Key
		if key != before[i].Key {
			t.Fatalf("record %d: key %#x, twin has %#x", i, key, before[i].Key)
		}
		if after[i].Addr4 == before[i].Addr4 {
			kept[int(key>>32)*shards+d.table.ShardOf(key)]++
			total++
		}
	}
	for set, n := range kept {
		if n > 1 {
			t.Errorf("group %d shard %d: %d subscribers kept their IPv4 address, want at most 1", set/shards, set%shards, n)
		}
	}
	if renumbered := d.Stats().Events.FailoverRenumbers; renumbered != uint64(len(after)) {
		t.Errorf("failover_renumbers = %d, want every one of the %d active sessions", renumbered, len(after))
	}
	t.Logf("%d of %d active subscribers kept their IPv4 address", total, len(after))
}

// TestFailoverResumeReplay: kill/resume across a failover replays to
// the identical state.
func TestFailoverResumeReplay(t *testing.T) {
	sc := &Scenario{FailoverAtHours: []int64{5}, Policy: PolicyRenumber}
	cfg := scenarioConfig(31, sc)
	ref := churned(t, cfg, Options{Workers: 4, RoundHours: 2}, 10)

	dir := t.TempDir()
	first := churned(t, cfg, Options{Workers: 4, RoundHours: 2, CheckpointDir: dir}, 8)
	_ = first // crashed after hour 8's watermark

	second, err := New(cfg, Options{Workers: 4, RoundHours: 2, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if h, err := second.Resume(); err != nil || h != 8 {
		t.Fatalf("Resume() = %d, %v; want 8, nil", h, err)
	}
	if err := second.Churn(10); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, second), snapshotBytes(t, ref)) {
		t.Error("resumed daemon diverged from uninterrupted run across a failover")
	}
}

// TestFailoverMeanSchedule: exponential failover scheduling fires
// deterministically from the seed.
func TestFailoverMeanSchedule(t *testing.T) {
	sc := &Scenario{FailoverMeanHours: 6, Policy: PolicyRenumber}
	a := churned(t, scenarioConfig(51, sc), Options{Workers: 4, RoundHours: 3}, 48)
	b := churned(t, scenarioConfig(51, sc), Options{Workers: 2, RoundHours: 1}, 48)
	va, vb := a.Stats(), b.Stats()
	if va.Failovers == 0 {
		t.Fatal("mean-scheduled scenario fired no failovers in 48h")
	}
	if va.Failovers != vb.Failovers || va.LastFailoverHour != vb.LastFailoverHour {
		t.Errorf("failover schedule not reproducible: %d@%d vs %d@%d",
			va.Failovers, va.LastFailoverHour, vb.Failovers, vb.LastFailoverHour)
	}
	if !bytes.Equal(snapshotBytes(t, a), snapshotBytes(t, b)) {
		t.Error("mean-scheduled failovers not deterministic across workers/rounds")
	}
}

// TestCoADisconnectActivity: operator actions fire, renumber sessions
// mid-lease, and stay deterministic.
func TestCoADisconnectActivity(t *testing.T) {
	sc := &Scenario{CoAMeanHours: 12, DisconnectMeanHours: 48}
	ref := churned(t, scenarioConfig(77, sc), Options{Workers: 1, RoundHours: 6}, 48)
	v := ref.Stats()
	if v.Events.CoAs == 0 {
		t.Error("no CoAs delivered")
	}
	if v.Events.Disconnects == 0 {
		t.Error("no operator disconnects delivered")
	}
	plain := churned(t, testConfig(77), Options{Workers: 1, RoundHours: 6}, 48)
	if v.Events.V4Changes <= plain.Stats().Events.V4Changes {
		t.Errorf("CoAs did not force extra renumbering (%d vs %d v4 changes)",
			v.Events.V4Changes, plain.Stats().Events.V4Changes)
	}
	for _, workers := range []int{4, 16} {
		d := churned(t, scenarioConfig(77, sc), Options{Workers: workers, RoundHours: 6}, 48)
		if !bytes.Equal(snapshotBytes(t, d), snapshotBytes(t, ref)) {
			t.Errorf("workers=%d: CoA/Disconnect run not deterministic", workers)
		}
	}
}

// TestRelayTopology: DHCP attach traffic crossing a lossy aggregation
// chain still converges deterministically, with drops accounted.
func TestRelayTopology(t *testing.T) {
	sc := &Scenario{RelayHops: 2, RelayDrop: 0.2}
	ref := churned(t, scenarioConfig(99, sc), Options{Workers: 1, RoundHours: 6}, 24)
	v := ref.Stats()
	if v.Events.RelayDrops == 0 {
		t.Error("no relay drops with 20% per-hop loss")
	}
	// The business (DHCP) group must still come up despite the loss.
	for _, g := range v.Groups {
		if g.Backend == BackendDHCP && g.Active < g.Subscribers/2 {
			t.Errorf("group %s: only %d/%d active behind the relay chain", g.Name, g.Active, g.Subscribers)
		}
	}
	for _, workers := range []int{4, 16} {
		d := churned(t, scenarioConfig(99, sc), Options{Workers: workers, RoundHours: 6}, 24)
		if !bytes.Equal(snapshotBytes(t, d), snapshotBytes(t, ref)) {
			t.Errorf("workers=%d: relay run not deterministic", workers)
		}
	}
	// Lossless relays: wire-routed but nothing dropped.
	clean := churned(t, scenarioConfig(99, &Scenario{RelayHops: 2}), Options{Workers: 4, RoundHours: 6}, 24)
	cv := clean.Stats()
	if cv.Events.RelayDrops != 0 || cv.Events.RelayOutages != 0 {
		t.Errorf("lossless relay chain recorded drops: %+v", cv.Events)
	}
}

// TestRelayLossKeepsAssignmentsUnique: under heavy relay loss no two
// live sessions share an IPv4 address or a delegated prefix. An attach
// the relay chain abandons releases whatever the subscriber's sticky
// memory names, which another subscriber may hold by then; the server
// must free an address only for the lease that holds it.
func TestRelayLossKeepsAssignmentsUnique(t *testing.T) {
	sc := &Scenario{RelayHops: 2, RelayDrop: 0.5}
	d := churned(t, scenarioConfig(5, sc), Options{Workers: 4, RoundHours: 24}, 1440)
	type pfx6 struct {
		hi  uint64
		len uint8
	}
	seen4 := make(map[uint32]bool)
	seen6 := make(map[pfx6]bool)
	var shared4, shared6 int
	_, snap := d.Snapshot()
	for _, s := range snap {
		if s.Addr4 != 0 {
			if seen4[s.Addr4] {
				shared4++
			}
			seen4[s.Addr4] = true
		}
		if p := (pfx6{s.Pfx6Hi, s.Pfx6Len}); s.Pfx6Len != 0 {
			if seen6[p] {
				shared6++
			}
			seen6[p] = true
		}
	}
	if shared4 != 0 || shared6 != 0 {
		t.Errorf("%d of %d live sessions share an IPv4 address and %d a delegated prefix with another", shared4, len(snap), shared6)
	}
}

// TestPairSyncPromote: an active/standby pair of daemons built from one
// Config stays in codec-level sync (CheckSync over the active's decoded
// snapshot stream) across rounds and a failover, and promotion by
// SetRole yields a daemon whose state matches a single-daemon run of
// the same scenario.
func TestPairSyncPromote(t *testing.T) {
	sc := &Scenario{FailoverAtHours: []int64{4}, Policy: PolicyRenumber}
	cfg := scenarioConfig(123, sc)
	opt := Options{Workers: 4, RoundHours: 2}
	withRole := func(role string) *Daemon {
		o := opt
		o.Role = role
		d, err := New(cfg, o)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	active, standby := withRole("active"), withRole("standby")
	for h := opt.RoundHours; h <= 8; h += opt.RoundHours {
		for _, d := range []*Daemon{active, standby} {
			if err := d.Churn(h); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := stripe.DecodeSnapshot(bytes.NewReader(snapshotBytes(t, active)))
		if err != nil {
			t.Fatal(err)
		}
		_, mine := standby.Snapshot()
		if err := CheckSync(recs, mine); err != nil {
			t.Fatalf("hour %d: %v", h, err)
		}
		if h == 8 {
			diverged := slices.Clone(mine)
			diverged[len(diverged)/2].Addr4++
			if CheckSync(recs, diverged) == nil || CheckSync(recs, mine[1:]) == nil {
				t.Fatal("CheckSync accepted a diverged standby")
			}
		}
	}
	if role := active.HA().Role; role != "active" {
		t.Errorf("active role = %q", role)
	}
	active.SetRole("standby")
	standby.SetRole("active")
	promoted := standby
	if role := promoted.HA().Role; role != "active" {
		t.Errorf("promoted role = %q", role)
	}
	if role := active.HA().Role; role != "standby" {
		t.Errorf("demoted role = %q", role)
	}
	if err := promoted.Churn(12); err != nil {
		t.Fatal(err)
	}
	solo := churned(t, cfg, opt, 12)
	if !bytes.Equal(snapshotBytes(t, promoted), snapshotBytes(t, solo)) {
		t.Error("promoted standby diverged from a solo run of the same scenario")
	}
	ha := promoted.HA()
	if len(ha.FailoverHours) != 1 || ha.FailoverHours[0] != 4 {
		t.Errorf("promoted FailoverHours = %v, want [4]", ha.FailoverHours)
	}
}
