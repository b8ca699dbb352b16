package isp

import (
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

func testProfile() Profile {
	p, ok := ProfileByName("DTAG")
	if !ok {
		panic("DTAG profile missing")
	}
	return p
}

func smallRun(t *testing.T, subs int, hours int64, seed int64) *Result {
	t.Helper()
	res, err := Run(Config{Profile: testProfile(), Subscribers: subs, Hours: hours, Seed: seed})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
	if len(Profiles()) < 10 {
		t.Errorf("expected at least the paper's 10 ASes, have %d", len(Profiles()))
	}
}

func TestProfileByName(t *testing.T) {
	if _, ok := ProfileByName("DTAG"); !ok {
		t.Error("DTAG not found")
	}
	if _, ok := ProfileByName("NoSuchISP"); ok {
		t.Error("bogus profile found")
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := testProfile()
	mutations := map[string]func(*Profile){
		"no name":      func(p *Profile) { p.Name = "" },
		"zero asn":     func(p *Profile) { p.ASN = 0 },
		"no bgp4":      func(p *Profile) { p.BGP4 = nil },
		"no bgp6":      func(p *Profile) { p.BGP6 = netip.Prefix{} },
		"no regions":   func(p *Profile) { p.Regions = 0 },
		"bad pool6":    func(p *Profile) { p.PoolLen6 = 10 },
		"long deleg":   func(p *Profile) { p.DelegatedLen = 96; p.PoolLen6 = 70 },
		"no ds class":  func(p *Profile) { p.DS = nil },
		"no nds class": func(p *Profile) { p.NDS = nil },
		"bad pool4":    func(p *Profile) { p.PoolLen4 = 4 },
	}
	for name, mut := range mutations {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate did not fail", name)
		}
	}
}

func TestDurationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	period := DurationModel{PeriodHours: 24, JitterHours: 1}
	for i := 0; i < 100; i++ {
		d := period.Next(rng)
		if d < 23 || d > 25 {
			t.Fatalf("periodic draw %v outside 24±1", d)
		}
	}
	exp := DurationModel{MeanHours: 100}
	var sum float64
	for i := 0; i < 5000; i++ {
		d := exp.Next(rng)
		if d < 1 {
			t.Fatalf("draw below 1 hour: %v", d)
		}
		sum += d
	}
	if mean := sum / 5000; mean < 80 || mean > 120 {
		t.Errorf("exponential mean %v, want ~100", mean)
	}
	static := DurationModel{}
	if !static.Static() {
		t.Error("empty model not static")
	}
	if d := static.Next(rng); !isInf(d) {
		t.Errorf("static model drew %v", d)
	}
	// Combined model: the shorter draw wins, so it can never exceed period+jitter.
	both := DurationModel{PeriodHours: 24, MeanHours: 1000}
	for i := 0; i < 100; i++ {
		if d := both.Next(rng); d > 24 {
			t.Fatalf("combined draw %v exceeds period", d)
		}
	}
}

func isInf(f float64) bool { return f > 1e300 }

func TestRunBasics(t *testing.T) {
	res := smallRun(t, 200, 2000, 1)
	if len(res.Subscribers) != 200 {
		t.Fatalf("subscribers = %d", len(res.Subscribers))
	}
	var ds, withV6 int
	for _, sub := range res.Subscribers {
		if len(sub.V4) == 0 {
			t.Fatalf("subscriber %d has no initial IPv4 step", sub.ID)
		}
		if sub.V4[0].Start != 0 {
			t.Errorf("subscriber %d first v4 step at %d", sub.ID, sub.V4[0].Start)
		}
		if sub.DualStack {
			ds++
			if len(sub.V6) > 0 {
				withV6++
			}
		} else if len(sub.V6) != 0 {
			t.Errorf("non-dual-stack subscriber %d has V6 steps", sub.ID)
		}
		if sub.Static && len(sub.V4) != 1 {
			t.Errorf("static subscriber %d has %d v4 steps", sub.ID, len(sub.V4))
		}
	}
	if ds == 0 || withV6 != ds {
		t.Errorf("dual-stack accounting: ds=%d withV6=%d", ds, withV6)
	}
	// ~68% dual-stack configured.
	if frac := float64(ds) / 200; frac < 0.5 || frac > 0.85 {
		t.Errorf("dual-stack fraction = %v", frac)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := smallRun(t, 50, 1000, 42)
	b := smallRun(t, 50, 1000, 42)
	for i := range a.Subscribers {
		sa, sb := a.Subscribers[i], b.Subscribers[i]
		if len(sa.V4) != len(sb.V4) || len(sa.V6) != len(sb.V6) {
			t.Fatalf("subscriber %d: step counts differ", i)
		}
		for j := range sa.V4 {
			if sa.V4[j] != sb.V4[j] {
				t.Fatalf("subscriber %d v4 step %d differs: %+v vs %+v", i, j, sa.V4[j], sb.V4[j])
			}
		}
		for j := range sa.V6 {
			if sa.V6[j] != sb.V6[j] {
				t.Fatalf("subscriber %d v6 step %d differs", i, j)
			}
		}
	}
}

func TestStepsMonotoneAndDistinct(t *testing.T) {
	res := smallRun(t, 100, 3000, 7)
	for _, sub := range res.Subscribers {
		for j := 1; j < len(sub.V4); j++ {
			if sub.V4[j].Start <= sub.V4[j-1].Start {
				t.Fatalf("subscriber %d: v4 steps not increasing", sub.ID)
			}
			if sub.V4[j].Addr == sub.V4[j-1].Addr {
				t.Fatalf("subscriber %d: consecutive identical v4 address %v", sub.ID, sub.V4[j].Addr)
			}
		}
		for j := 1; j < len(sub.V6); j++ {
			if sub.V6[j].Start <= sub.V6[j-1].Start {
				t.Fatalf("subscriber %d: v6 steps not increasing", sub.ID)
			}
			if sub.V6[j].LAN == sub.V6[j-1].LAN {
				t.Fatalf("subscriber %d: consecutive identical LAN %v", sub.ID, sub.V6[j].LAN)
			}
		}
	}
}

func TestAddressesInsideAnnouncedSpace(t *testing.T) {
	res := smallRun(t, 100, 2000, 3)
	p := res.Profile
	inBGP4 := func(a netip.Addr) bool {
		for _, b := range p.BGP4 {
			if b.Contains(a) {
				return true
			}
		}
		return false
	}
	for _, sub := range res.Subscribers {
		for _, st := range sub.V4 {
			if !inBGP4(st.Addr) {
				t.Fatalf("v4 address %v outside announced prefixes", st.Addr)
			}
			if asn, _, ok := res.BGP.Origin(st.Addr); !ok || asn != p.ASN {
				t.Fatalf("BGP table does not cover %v", st.Addr)
			}
		}
		for _, st := range sub.V6 {
			if !p.BGP6.Contains(st.Delegated.Addr()) {
				t.Fatalf("delegation %v outside aggregate %v", st.Delegated, p.BGP6)
			}
			if st.Delegated.Bits() != p.DelegatedLen {
				t.Fatalf("delegation length /%d, want /%d", st.Delegated.Bits(), p.DelegatedLen)
			}
			if st.LAN.Bits() != 64 {
				t.Fatalf("LAN prefix %v not a /64", st.LAN)
			}
			if !netutil.ContainsPrefix(st.Delegated, st.LAN) {
				t.Fatalf("LAN %v outside delegation %v", st.LAN, st.Delegated)
			}
		}
	}
}

func TestNoConcurrentV4Sharing(t *testing.T) {
	res := smallRun(t, 150, 2000, 9)
	type interval struct {
		start, end int64
		sub        int
	}
	byAddr := map[netip.Addr][]interval{}
	for _, sub := range res.Subscribers {
		for j, st := range sub.V4 {
			end := res.Hours
			if j+1 < len(sub.V4) {
				end = sub.V4[j+1].Start
			}
			byAddr[st.Addr] = append(byAddr[st.Addr], interval{st.Start, end, sub.ID})
		}
	}
	for addr, ivs := range byAddr {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				if a.sub != b.sub && a.start < b.end && b.start < a.end {
					t.Fatalf("address %v held by subscribers %d and %d simultaneously", addr, a.sub, b.sub)
				}
			}
		}
	}
}

func TestPeriodicClassProducesDailyDurations(t *testing.T) {
	res := smallRun(t, 300, 4000, 11)
	daily := 0
	total := 0
	for _, sub := range res.Subscribers {
		for j := 1; j < len(sub.V4); j++ {
			d := sub.V4[j].Start - sub.V4[j-1].Start
			total++
			if d >= 23 && d <= 25 {
				daily++
			}
		}
	}
	if total == 0 {
		t.Fatal("no v4 changes at all")
	}
	if frac := float64(daily) / float64(total); frac < 0.7 {
		t.Errorf("daily-duration fraction = %v; DTAG should be dominated by 24h changes", frac)
	}
}

func TestCoupledChangesSameHour(t *testing.T) {
	res := smallRun(t, 300, 4000, 13)
	// DTAG: the majority of v6 changes co-occur with a v4 change.
	co, tot := 0, 0
	for _, sub := range res.Subscribers {
		if !sub.DualStack {
			continue
		}
		v4at := map[int64]bool{}
		for _, st := range sub.V4 {
			v4at[st.Start] = true
		}
		for j := 1; j < len(sub.V6); j++ {
			if sub.V6[j].Delegated == sub.V6[j-1].Delegated {
				continue // CPE scramble, not an ISP change
			}
			tot++
			if v4at[sub.V6[j].Start] {
				co++
			}
		}
	}
	if tot == 0 {
		t.Fatal("no v6 changes")
	}
	if frac := float64(co) / float64(tot); frac < 0.8 {
		t.Errorf("co-occurrence fraction = %v, want > 0.8 for DTAG", frac)
	}
}

func TestV6LocalityWithinPool(t *testing.T) {
	res := smallRun(t, 300, 6000, 17)
	p := res.Profile
	inPool, tot := 0, 0
	for _, sub := range res.Subscribers {
		for j := 1; j < len(sub.V6); j++ {
			if sub.V6[j].Delegated == sub.V6[j-1].Delegated {
				continue
			}
			tot++
			if netutil.CommonPrefixLen64(
				netip.PrefixFrom(sub.V6[j].Delegated.Addr(), 64),
				netip.PrefixFrom(sub.V6[j-1].Delegated.Addr(), 64)) >= p.PoolLen6 {
				inPool++
			}
		}
	}
	if tot == 0 {
		t.Fatal("no v6 changes")
	}
	if frac := float64(inPool) / float64(tot); frac < 0.9 {
		t.Errorf("same-pool fraction = %v, want > 0.9 (CrossPool6Frac is 0.02)", frac)
	}
}

func TestScramblerKeepsDelegationBits(t *testing.T) {
	res := smallRun(t, 400, 4000, 19)
	p := res.Profile
	var scramblers, rescrambles int
	for _, sub := range res.Subscribers {
		if !sub.Scramble {
			// Zero-mode CPEs announce the lowest /64: trailing bits zero.
			for _, st := range sub.V6 {
				if netutil.ZeroBitsBefore64(st.LAN) < 64-p.DelegatedLen {
					t.Fatalf("zero-mode CPE LAN %v has non-zero bits below /%d", st.LAN, p.DelegatedLen)
				}
			}
			continue
		}
		scramblers++
		for j, st := range sub.V6 {
			if netutil.CommonPrefixLen64(st.LAN, netip.PrefixFrom(st.Delegated.Addr(), 64)) < p.DelegatedLen {
				t.Fatalf("scrambled LAN %v escaped delegation %v", st.LAN, st.Delegated)
			}
			if j > 0 && st.Delegated == sub.V6[j-1].Delegated {
				rescrambles++
			}
		}
	}
	if scramblers == 0 {
		t.Fatal("no scramblers in a DTAG run")
	}
	if rescrambles == 0 {
		t.Error("no rescramble events observed")
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(Config{Profile: testProfile(), Subscribers: 0, Hours: 10}); err == nil {
		t.Error("zero subscribers accepted")
	}
	if _, err := Run(Config{Profile: testProfile(), Subscribers: 10, Hours: 0}); err == nil {
		t.Error("zero hours accepted")
	}
	bad := testProfile()
	bad.Name = ""
	if _, err := Run(Config{Profile: bad, Subscribers: 10, Hours: 10}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestCrossBGP6(t *testing.T) {
	p, ok := ProfileByName("Free SAS")
	if !ok {
		t.Fatal("Free SAS profile missing")
	}
	res, err := Run(Config{Profile: p, Subscribers: 400, Hours: 50400, Seed: 23})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	extra := 0
	for _, sub := range res.Subscribers {
		for _, st := range sub.V6 {
			inMain := p.BGP6.Contains(st.Delegated.Addr())
			inExtra := false
			for _, e := range p.BGP6Extra {
				if e.Contains(st.Delegated.Addr()) {
					inExtra = true
				}
			}
			if !inMain && !inExtra {
				t.Fatalf("delegation %v outside all aggregates", st.Delegated)
			}
			if inExtra {
				extra++
			}
		}
	}
	if extra == 0 {
		t.Error("no delegations from BGP6Extra despite CrossBGP6Frac > 0")
	}
}

func BenchmarkRunDTAG(b *testing.B) {
	p := testProfile()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{Profile: p, Subscribers: 200, Hours: 8760, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInfraOutagesCorrelateChanges(t *testing.T) {
	p := testProfile()
	// Quiet classes so outages are the dominant change source.
	quiet := []Class{{Weight: 1, V4: DurationModel{MeanHours: 400000}, V6: DurationModel{MeanHours: 400000}}}
	p.DS, p.NDS = quiet, quiet
	p.StaticFrac = 0
	p.ScrambleFrac = 0
	p.Shift = nil
	p.InfraOutageMeanHours = 2000
	res, err := Run(Config{Profile: p, Subscribers: 200, Hours: 8760, Seed: 77})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Count v4 changes per (region, hour): outages change many
	// subscribers of one region in the same hour.
	type key struct {
		region int
		hour   int64
	}
	perHour := map[key]int{}
	for _, sub := range res.Subscribers {
		for _, st := range sub.V4[1:] {
			perHour[key{sub.Region, st.Start}]++
		}
	}
	correlated := 0
	for _, n := range perHour {
		if n >= 5 {
			correlated++
		}
	}
	if correlated < 3 {
		t.Errorf("correlated change hours = %d, want several (outages affect whole regions)", correlated)
	}
	// Outage-driven delegations still come from the region pool.
	for _, sub := range res.Subscribers {
		for _, st := range sub.V6 {
			if !p.BGP6.Contains(st.Delegated.Addr()) {
				t.Fatalf("delegation %v escaped the aggregate", st.Delegated)
			}
		}
	}
}

func TestValidateCrossCPL(t *testing.T) {
	p := testProfile()
	p.CrossCPL = 10 // shorter than the aggregate
	if err := p.Validate(); err == nil {
		t.Error("CrossCPL below aggregate accepted")
	}
	p = testProfile()
	p.CrossCPL = p.PoolLen6 // not inside the pool
	if err := p.Validate(); err == nil {
		t.Error("CrossCPL at pool length accepted")
	}
}

func TestAdminRenumberMovesEveryone(t *testing.T) {
	p := testProfile()
	quiet := []Class{{Weight: 1, V4: DurationModel{MeanHours: 400000}, V6: DurationModel{MeanHours: 400000}}}
	p.DS, p.NDS = quiet, quiet
	p.StaticFrac = 0
	p.ScrambleFrac = 0
	p.Shift = nil
	p.AdminRenumberAtHours = []int64{500}
	res, err := Run(Config{Profile: p, Subscribers: 120, Hours: 1000, Seed: 91})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	moved4, movedAll := 0, 0
	for _, sub := range res.Subscribers {
		movedAll++
		for _, st := range sub.V4[1:] {
			if st.Start == 500 {
				moved4++
				break
			}
		}
		if sub.DualStack {
			before, after := false, false
			for _, st := range sub.V6 {
				if st.Start < 500 {
					before = true
				}
				if st.Start == 500 {
					after = true
				}
			}
			if before && !after {
				t.Fatalf("dual-stack subscriber %d kept its prefix through renumbering", sub.ID)
			}
		}
	}
	if moved4 != movedAll {
		t.Errorf("%d of %d subscribers moved at the renumbering hour", moved4, movedAll)
	}
}

func TestRemoteProfile(t *testing.T) {
	v4 := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/9")}
	v6 := netip.MustParsePrefix("2001:db8::/34")

	p, err := RemoteProfile("bng/res", 64512, BackendRADIUS, v4, v6, 56, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("remote profile invalid: %v", err)
	}
	if p.PoolLen4 != 11 || p.PoolLen6 != 40 || p.DualStackFrac != 1 {
		t.Errorf("derived pools /%d //%d dsfrac=%g, want /11 //40 1", p.PoolLen4, p.PoolLen6, p.DualStackFrac)
	}
	if len(p.DS) == 0 || !p.DS[0].Coupled || p.DS[0].V4.PeriodHours != 4 {
		t.Errorf("RADIUS classes should renumber on the 4h lease cadence: %+v", p.DS)
	}

	// A sticky DHCP backend gets exponential, decoupled classes.
	p, err = RemoteProfile("bng/biz", 64513, BackendDHCP, v4, v6, 56, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range p.DS {
		if c.V4.PeriodHours != 0 || c.Coupled {
			t.Errorf("DHCP class should be exponential and decoupled: %+v", c)
		}
	}

	// The v6 pool never outruns the delegation, and a runnable profile
	// comes back even from a tight aggregate.
	p, err = RemoteProfile("bng/tight", 64514, BackendRADIUS, v4, netip.MustParsePrefix("2001:db8::/60"), 61, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.PoolLen6 != 61 {
		t.Errorf("tight aggregate: pool //%d, want //61", p.PoolLen6)
	}
	if _, err := Run(Config{Profile: p, Subscribers: 20, Hours: 24, Seed: 3}); err != nil {
		t.Errorf("tight remote profile does not run: %v", err)
	}

	// Rejections.
	bad := []struct {
		name string
		err  func() error
	}{
		{"no name", func() error {
			_, err := RemoteProfile("", 1, BackendRADIUS, v4, v6, 56, 4)
			return err
		}},
		{"no v4", func() error {
			_, err := RemoteProfile("x", 1, BackendRADIUS, nil, v6, 56, 4)
			return err
		}},
		{"invalid v6", func() error {
			_, err := RemoteProfile("x", 1, BackendRADIUS, v4, netip.Prefix{}, 56, 4)
			return err
		}},
		{"delegation above aggregate", func() error {
			_, err := RemoteProfile("x", 1, BackendRADIUS, v4, v6, 34, 4)
			return err
		}},
		{"delegation below /64", func() error {
			_, err := RemoteProfile("x", 1, BackendRADIUS, v4, v6, 65, 4)
			return err
		}},
	}
	for _, tc := range bad {
		if tc.err() == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}
