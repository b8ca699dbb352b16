package hitlist

import (
	"net/netip"
	"testing"

	"dynamips/internal/atlas"
	"dynamips/internal/core"
	"dynamips/internal/isp"
)

func p64(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestListLifecycle(t *testing.T) {
	st := Structure{ASN: 3320, PoolLen: 40, SubscriberLen: 56, Aligned: true, ExpectedLifetimeHours: 100}
	l := New(st)
	l.Observe(p64("2003:1000:0:100::/64"), 3320, 0)
	l.Observe(p64("2003:1000:0:200::/64"), 3320, 50)
	l.Observe(p64("2003:1000:0:100::/64"), 3320, 30) // refresh sighting
	if l.Len() != 2 {
		t.Fatalf("Len = %d", l.Len())
	}
	if got := len(l.Fresh(60)); got != 2 {
		t.Errorf("Fresh(60) = %d", got)
	}
	stale := l.Stale(140)
	if len(stale) != 1 || stale[0].Prefix != p64("2003:1000:0:100::/64") {
		t.Fatalf("Stale(140) = %+v", stale)
	}
	plan, err := l.RefreshPlan(stale[0])
	if err != nil {
		t.Fatalf("RefreshPlan: %v", err)
	}
	if plan.Pool != p64("2003:1000::/40") || plan.Size() != 1<<16 {
		t.Errorf("plan = %+v", plan)
	}
	l.Refresh(stale[0], p64("2003:1000:0:4400::/64"), 150)
	if l.Len() != 2 {
		t.Errorf("Len after refresh = %d", l.Len())
	}
	// The refreshed target is fresh again; the hour-50 target has aged out.
	stale2 := l.Stale(160)
	if len(stale2) != 1 || stale2[0].Prefix != p64("2003:1000:0:200::/64") {
		t.Errorf("Stale after refresh = %+v", stale2)
	}
}

func TestRefreshPlanUnknownAS(t *testing.T) {
	l := New()
	l.Observe(p64("2003::/64"), 999, 0)
	if _, err := l.RefreshPlan(l.Stale(1e6)[0]); err == nil {
		t.Error("plan for unknown AS succeeded")
	}
	// Unknown ASes get the conservative month default.
	if got := len(l.Fresh(700)); got != 1 {
		t.Errorf("Fresh under default lifetime = %d", got)
	}
	if got := len(l.Stale(24*30 + 1)); got != 1 {
		t.Errorf("Stale past default lifetime = %d", got)
	}
}

// TestLearnAndCurateEndToEnd learns the structure from a fleet, curates a
// hitlist of the fleet's own /64s, and checks that every stale target's
// true new location falls inside its refresh plan.
func TestLearnAndCurateEndToEnd(t *testing.T) {
	profile, _ := isp.ProfileByName("DTAG")
	res, err := isp.Run(isp.Config{Profile: profile, Subscribers: 300, Hours: 18000, Seed: 401})
	if err != nil {
		t.Fatalf("isp.Run: %v", err)
	}
	fleet, err := atlas.BuildFleet(res, atlas.DefaultFleetConfig(200, 402))
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	pas := core.Analyze(atlas.Sanitize(fleet.Series, fleet.BGP, atlas.DefaultSanitizeConfig()).Clean,
		core.DefaultExtractConfig())
	st, err := LearnStructure(3320, pas, fleet.BGP, 0.5)
	if err != nil {
		t.Fatalf("LearnStructure: %v", err)
	}
	if st.SubscriberLen != 56 {
		t.Errorf("learned subscriber length /%d", st.SubscriberLen)
	}
	if st.PoolLen < 32 || st.PoolLen > 44 {
		t.Errorf("learned pool /%d", st.PoolLen)
	}
	if st.ExpectedLifetimeHours <= 0 {
		t.Errorf("lifetime = %v", st.ExpectedLifetimeHours)
	}
	// DTAG's scrambler population pushes the aligned shortcut off.
	if st.Aligned {
		t.Log("aligned plan learned; scramblers below threshold")
	}

	l := New(st)
	// Seed the list with each dual-stack subscriber's first /64.
	for _, sub := range res.Subscribers {
		if len(sub.V6) > 0 {
			l.Observe(sub.V6[0].LAN, 3320, sub.V6[0].Start)
		}
	}
	// Fast-forward past the expected lifetime: daily-renumbered targets
	// go stale.
	horizon := res.Hours - 1
	stale := l.Stale(horizon)
	if len(stale) == 0 {
		t.Fatal("no stale targets despite daily renumbering")
	}
	// Each stale target's true current /64 must be inside its plan.
	current := make(map[netip.Prefix]netip.Prefix) // first /64 -> final /64
	for _, sub := range res.Subscribers {
		if len(sub.V6) > 0 {
			current[netip.PrefixFrom(sub.V6[0].LAN.Addr(), 64)] = sub.V6[len(sub.V6)-1].LAN
		}
	}
	found := 0
	for _, target := range stale {
		plan, err := l.RefreshPlan(target)
		if err != nil {
			t.Fatalf("RefreshPlan: %v", err)
		}
		if now, ok := current[target.Prefix]; ok && plan.Contains(now) {
			found++
		}
	}
	// First-sighting -> final-location containment over a two-year
	// horizon: cross-pool hops (CrossPool6Frac per change, compounded
	// over hundreds of changes) move a sizable minority outside the
	// original pool. Consecutive-change recovery is the ~99% number
	// (see Example_hitlist); across the full horizon ~40-60% is the
	// expected regime.
	if frac := float64(found) / float64(len(stale)); frac < 0.35 {
		t.Errorf("refresh plans contain %v of true locations, want >= 0.35", frac)
	}
}
