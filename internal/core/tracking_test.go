package core

import (
	"net/netip"
	"testing"

	"dynamips/internal/atlas"
	"dynamips/internal/echo"
	"dynamips/internal/isp"
	"dynamips/internal/netutil"
)

func v6WithIID(p64 string, iid uint64) netip.Addr {
	hi, _ := netutil.U128(netip.MustParsePrefix(p64).Addr())
	return netutil.AddrFrom128(hi, iid)
}

func TestIID(t *testing.T) {
	a := v6WithIID("2003:1000:0:100::/64", 0xdeadbeefcafe)
	iid, ok := IID(a)
	if !ok || iid != 0xdeadbeefcafe {
		t.Fatalf("IID = %x, %v", iid, ok)
	}
	if _, ok := IID(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("IPv4 yielded an IID")
	}
}

func TestMeasureTrackingStableIID(t *testing.T) {
	const iid = 0x0200_0000_0000_0042
	ser := echo.Series{Probe: echo.Probe{ID: 1, ASN: 3320}}
	for i := int64(0); i < 5; i++ {
		p := netip.MustParseAddr("2003:1000::").As16()
		p[6] = byte(i + 1)
		addr := netutil.AddrFrom128(netutil.Key64(netip.AddrFrom16(p)), iid)
		ser.V6 = append(ser.V6, echo.Span{Start: i * 100, End: i*100 + 99, Echo: addr, Src: addr})
	}
	rep := MeasureTracking([]echo.Series{ser})
	if rep.Devices != 1 || rep.Changes != 4 || rep.Linkable != 4 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LinkableFrac() != 1 {
		t.Errorf("LinkableFrac = %v", rep.LinkableFrac())
	}
	if rep.Collisions != 0 {
		t.Errorf("Collisions = %d", rep.Collisions)
	}
}

func TestMeasureTrackingPrivacyAddresses(t *testing.T) {
	// A device that rotates its IID on every renumbering (privacy
	// addresses, RFC 4941) is not linkable.
	ser := echo.Series{Probe: echo.Probe{ID: 1, ASN: 3320}}
	for i := int64(0); i < 5; i++ {
		p := netip.MustParseAddr("2003:1000::").As16()
		p[6] = byte(i + 1)
		addr := netutil.AddrFrom128(netutil.Key64(netip.AddrFrom16(p)), uint64(0x1000+i))
		ser.V6 = append(ser.V6, echo.Span{Start: i * 100, End: i*100 + 99, Echo: addr, Src: addr})
	}
	rep := MeasureTracking([]echo.Series{ser})
	if rep.Changes != 4 || rep.Linkable != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestMeasureTrackingCollisions(t *testing.T) {
	mk := func(id int, iid uint64) echo.Series {
		addr := v6WithIID("2003:1000:0:100::/64", iid)
		return echo.Series{Probe: echo.Probe{ID: id, ASN: 3320},
			V6: []echo.Span{{Start: 0, End: 9, Echo: addr, Src: addr}}}
	}
	rep := MeasureTracking([]echo.Series{mk(1, 7), mk(2, 7), mk(3, 8)})
	if rep.Collisions != 1 {
		t.Errorf("Collisions = %d, want 1", rep.Collisions)
	}
}

func TestLinkByIID(t *testing.T) {
	const iid = 0x0200_0000_0000_0099
	ser := echo.Series{Probe: echo.Probe{ID: 1, ASN: 3320}}
	prefixes := []string{"2003:1000:0:100::/64", "2003:1000:0:200::/64", "2003:1000:0:100::/64"}
	for i, ps := range prefixes {
		addr := v6WithIID(ps, iid)
		ser.V6 = append(ser.V6, echo.Span{Start: int64(i) * 50, End: int64(i)*50 + 49, Echo: addr, Src: addr})
	}
	devices := LinkByIID([]echo.Series{ser})
	if len(devices) != 1 {
		t.Fatalf("devices = %+v", devices)
	}
	d := devices[0]
	if d.IID != iid || len(d.Prefixes) != 2 {
		t.Fatalf("device = %+v", d)
	}
}

// TestTrackingOnFleet confirms the §6 claim end to end: Atlas-style
// probes use stable IIDs, so nearly all renumberings are linkable.
func TestTrackingOnFleet(t *testing.T) {
	p, _ := isp.ProfileByName("DTAG")
	res, err := isp.Run(isp.Config{Profile: p, Subscribers: 150, Hours: 5000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := atlas.BuildFleet(res, atlas.FleetConfig{Probes: 80, Seed: 56, JoinSpreadFrac: 0.2,
		UptimeMeanHours: 4000, DowntimeMeanHours: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureTracking(fleet.Series)
	if rep.Devices == 0 || rep.Changes == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LinkableFrac() < 0.99 {
		t.Errorf("LinkableFrac = %v, want ~1 for stable-IID probes", rep.LinkableFrac())
	}
	if rep.Collisions != 0 {
		t.Errorf("collisions across distinct probes: %d", rep.Collisions)
	}
}

// TestTrackingPrivacyFleet: privacy-address devices defeat IID linking
// while the /64 subscriber identification (the paper's point) survives.
func TestTrackingPrivacyFleet(t *testing.T) {
	p, _ := isp.ProfileByName("DTAG")
	res, err := isp.Run(isp.Config{Profile: p, Subscribers: 150, Hours: 5000, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := atlas.BuildFleet(res, atlas.FleetConfig{Probes: 80, Seed: 58, JoinSpreadFrac: 0.2,
		UptimeMeanHours: 4000, DowntimeMeanHours: 5, PrivacyIIDFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep := MeasureTracking(fleet.Series)
	if rep.Changes == 0 {
		t.Fatal("no changes")
	}
	if rep.LinkableFrac() > 0.01 {
		t.Errorf("LinkableFrac = %v, want ~0 for privacy addresses", rep.LinkableFrac())
	}
	// The /64-level analysis is unaffected: subscriber inference still
	// works on the same fleet.
	pas := Analyze(atlas.Sanitize(fleet.Series, fleet.BGP, atlas.DefaultSanitizeConfig()).Clean,
		DefaultExtractConfig())
	perAS, _ := SubscriberLengths(pas)
	if h := perAS[3320]; h == nil || h.ArgMax() != 56 {
		t.Errorf("subscriber inference degraded under privacy addresses: %+v", h)
	}
}
