package atlas

import (
	"bytes"
	"context"
	"net/netip"
	"testing"

	"dynamips/internal/bgp"
	"dynamips/internal/echo"
	"dynamips/internal/isp"
)

func simResult(t *testing.T) *isp.Result {
	t.Helper()
	p, ok := isp.ProfileByName("DTAG")
	if !ok {
		t.Fatal("DTAG profile missing")
	}
	res, err := isp.Run(isp.Config{Profile: p, Subscribers: 150, Hours: 6000, Seed: 5})
	if err != nil {
		t.Fatalf("isp.Run: %v", err)
	}
	return res
}

func cleanFleet(t *testing.T, res *isp.Result, probes int) *Fleet {
	t.Helper()
	cfg := FleetConfig{Probes: probes, Seed: 2, JoinSpreadFrac: 0.3, UptimeMeanHours: 4000, DowntimeMeanHours: 6}
	f, err := BuildFleet(res, cfg)
	if err != nil {
		t.Fatalf("BuildFleet: %v", err)
	}
	return f
}

func TestSeriesJSONLRoundTrip(t *testing.T) {
	res := simResult(t)
	f := cleanFleet(t, res, 20)
	var buf bytes.Buffer
	if err := echo.WriteSeries(&buf, f.Series); err != nil {
		t.Fatalf("WriteSeries: %v", err)
	}
	got, err := echo.ReadSeries(&buf)
	if err != nil {
		t.Fatalf("ReadSeries: %v", err)
	}
	if len(got) != len(f.Series) {
		t.Fatalf("read %d series, want %d", len(got), len(f.Series))
	}
	for i := range got {
		if got[i].Probe.ID != f.Series[i].Probe.ID ||
			len(got[i].V4) != len(f.Series[i].V4) ||
			len(got[i].V6) != len(f.Series[i].V6) {
			t.Errorf("series %d differs after round trip", i)
		}
	}
}

// TestFleetsPassValidation: every built-in profile's fleet, anomalies
// included, is valid input for the records path: each series passes
// ValidateSeries and each record Expand gives passes Record.Validate, so
// 'gen atlas -raw' output always feeds 'analyze -format records'.
func TestFleetsPassValidation(t *testing.T) {
	for i, prof := range isp.Profiles() {
		res, err := isp.Run(isp.Config{Profile: prof, Subscribers: 60, Hours: 3000, Seed: int64(i)})
		if err != nil {
			t.Fatalf("%s: isp.Run: %v", prof.Name, err)
		}
		f, err := BuildFleet(res, DefaultFleetConfig(30, int64(i)+1))
		if err != nil {
			t.Fatalf("%s: BuildFleet: %v", prof.Name, err)
		}
		for j := range f.Series {
			if err := echo.ValidateSeries(&f.Series[j]); err != nil {
				t.Fatalf("%s: %v", prof.Name, err)
			}
			for _, r := range f.Series[j].Expand() {
				if err := r.Validate(); err != nil {
					t.Fatalf("%s: %v", prof.Name, err)
				}
			}
		}
	}
}

func TestEchoServerAndClient(t *testing.T) {
	srv, err := StartEchoServerObs("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("StartEchoServerObs: %v", err)
	}
	defer srv.Close()
	cl := &EchoClient{URL: srv.URL()}
	addr, err := cl.Measure(context.Background())
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if !addr.IsLoopback() {
		t.Errorf("echoed %v, want loopback", addr)
	}
	// Repeated measurements keep working (keep-alive path).
	for i := 0; i < 3; i++ {
		if _, err := cl.Measure(context.Background()); err != nil {
			t.Fatalf("Measure %d: %v", i, err)
		}
	}
}

func TestBuildFleetBasics(t *testing.T) {
	res := simResult(t)
	f := cleanFleet(t, res, 50)
	if len(f.Series) != 50 {
		t.Fatalf("fleet has %d series", len(f.Series))
	}
	for _, ser := range f.Series {
		if f.Truth[ser.Probe.ID] != KindClean {
			t.Fatalf("clean config produced %v probe", f.Truth[ser.Probe.ID])
		}
		if len(ser.V4) == 0 {
			t.Fatalf("probe %d has no v4 spans", ser.Probe.ID)
		}
		for i, sp := range ser.V4 {
			if sp.End < sp.Start {
				t.Fatalf("probe %d span %d inverted", ser.Probe.ID, i)
			}
			if i > 0 && sp.Start <= ser.V4[i-1].End {
				t.Fatalf("probe %d spans overlap", ser.Probe.ID)
			}
			if !sp.Src.IsPrivate() {
				t.Fatalf("clean probe %d has public v4 src %v", ser.Probe.ID, sp.Src)
			}
		}
		for _, sp := range ser.V6 {
			if sp.Src != sp.Echo {
				t.Fatalf("clean probe %d v6 src != echo", ser.Probe.ID)
			}
		}
	}
}

func TestBuildFleetStableIID(t *testing.T) {
	res := simResult(t)
	f := cleanFleet(t, res, 50)
	for _, ser := range f.Series {
		var iid uint64
		for i, sp := range ser.V6 {
			hi := sp.Echo.As16()
			var lo uint64
			for _, b := range hi[8:] {
				lo = lo<<8 | uint64(b)
			}
			if i == 0 {
				iid = lo
			} else if lo != iid {
				t.Fatalf("probe %d IID changed: %x -> %x", ser.Probe.ID, iid, lo)
			}
		}
	}
}

func TestBuildFleetErrors(t *testing.T) {
	res := simResult(t)
	if _, err := BuildFleet(res, FleetConfig{Probes: 0}); err == nil {
		t.Error("zero probes accepted")
	}
	if _, err := BuildFleet(res, FleetConfig{Probes: 10000}); err == nil {
		t.Error("more probes than subscribers accepted")
	}
}

func TestSanitizeKeepsCleanProbes(t *testing.T) {
	res := simResult(t)
	f := cleanFleet(t, res, 60)
	out := Sanitize(f.Series, f.BGP, DefaultSanitizeConfig())
	// Some clean probes may join late and observe < 720 hours.
	if len(out.Clean)+out.Drops[DropShort] != 60 {
		t.Fatalf("clean=%d drops=%v", len(out.Clean), out.Drops)
	}
	for _, ser := range out.Clean {
		if ser.Probe.ASN != res.Profile.ASN {
			t.Errorf("probe %d assigned ASN %d", ser.Probe.ID, ser.Probe.ASN)
		}
	}
}

func TestSanitizeFiltersAnomalies(t *testing.T) {
	res := simResult(t)
	cfg := DefaultFleetConfig(100, 3)
	f, err := BuildFleet(res, cfg)
	if err != nil {
		t.Fatalf("BuildFleet: %v", err)
	}
	out := Sanitize(f.Series, f.BGP, DefaultSanitizeConfig())

	// Index the surviving probe IDs (virtual probes map back via /10).
	surviving := map[int]bool{}
	for _, ser := range out.Clean {
		surviving[ser.Probe.ID] = true
	}
	for _, ser := range f.Series {
		kind := f.Truth[ser.Probe.ID]
		id := ser.Probe.ID
		switch kind {
		case KindBadTag, KindAtypicalNAT, KindMultihomed:
			if surviving[id] || surviving[id*10+1] {
				t.Errorf("%v probe %d survived sanitization", kind, id)
			}
		case KindASSwitch:
			if surviving[id] {
				t.Errorf("as-switch probe %d survived unsplit", id)
			}
		}
	}
	for _, reason := range []string{DropBadTag, DropAtypicalNAT, DropMultihomed} {
		if out.Drops[reason] == 0 {
			t.Errorf("no drops recorded for %s (drops=%v)", reason, out.Drops)
		}
	}
	if out.VirtualSplits == 0 {
		t.Error("no virtual splits recorded")
	}
	// No test-address entries survive.
	for _, ser := range out.Clean {
		for _, sp := range ser.V4 {
			if sp.Echo == TestAddr {
				t.Fatalf("test address survived in probe %d", ser.Probe.ID)
			}
		}
	}
	// Every surviving series is single-AS.
	for _, ser := range out.Clean {
		seen := map[uint32]bool{}
		for _, sp := range ser.V4 {
			asn, _, _ := f.BGP.Origin(sp.Echo)
			seen[asn] = true
		}
		if len(seen) > 1 {
			t.Errorf("probe %d spans multiple ASes after sanitize", ser.Probe.ID)
		}
	}
}

func TestSanitizeShortProbes(t *testing.T) {
	res := simResult(t)
	cfg := FleetConfig{Probes: 40, Seed: 11, JoinSpreadFrac: 0.2, ShortFrac: 1.0}
	f, err := BuildFleet(res, cfg)
	if err != nil {
		t.Fatalf("BuildFleet: %v", err)
	}
	out := Sanitize(f.Series, f.BGP, DefaultSanitizeConfig())
	if len(out.Clean) != 0 {
		t.Errorf("%d short probes survived", len(out.Clean))
	}
	if out.Drops[DropShort] != 40 {
		t.Errorf("Drops = %v", out.Drops)
	}
}

func TestPrependTestAddr(t *testing.T) {
	ser := echo.Series{V4: []echo.Span{{Start: 0, End: 10, Echo: netip.MustParseAddr("81.10.0.1")}}}
	PrependTestAddr(&ser)
	if len(ser.V4) != 2 || ser.V4[0].Echo != TestAddr || ser.V4[1].Start != 2 {
		t.Errorf("PrependTestAddr: %+v", ser.V4)
	}
	// Too-short first span: no-op.
	short := echo.Series{V4: []echo.Span{{Start: 0, End: 1, Echo: netip.MustParseAddr("81.10.0.1")}}}
	PrependTestAddr(&short)
	if len(short.V4) != 1 {
		t.Errorf("short PrependTestAddr modified series")
	}
}

func TestKindString(t *testing.T) {
	if KindClean.String() != "clean" || KindASSwitch.String() != "as-switch" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
}

// TestSanitizeUnroutedSpans: unrouted echoes carry no AS attribution.
// They must not read as an A,0,A alternation (dropping the probe as
// multihomed), and AS-switch splitting must not fabricate AS-0 virtual
// probes from them.
func TestSanitizeUnroutedSpans(t *testing.T) {
	table := &bgp.Table{}
	table.Announce(netip.MustParsePrefix("81.10.0.0/16"), 3320)
	table.Announce(netip.MustParsePrefix("203.0.113.0/24"), 64501)
	homeA := netip.MustParseAddr("81.10.0.1")
	homeB := netip.MustParseAddr("81.10.0.9")
	unrouted := netip.MustParseAddr("100.64.0.1")
	foreign := netip.MustParseAddr("203.0.113.7")

	// Transiently unrouted echo between two stretches of the home AS.
	ser := echo.Series{
		Probe: echo.Probe{ID: 1, ASN: 3320},
		V4: []echo.Span{
			{Start: 0, End: 800, Echo: homeA},
			{Start: 801, End: 820, Echo: unrouted},
			{Start: 821, End: 1700, Echo: homeB},
		},
	}
	out := Sanitize([]echo.Series{ser}, table, DefaultSanitizeConfig())
	if len(out.Clean) != 1 || out.Drops[DropMultihomed] != 0 {
		t.Fatalf("transiently unrouted probe mishandled: clean=%d drops=%v", len(out.Clean), out.Drops)
	}
	if out.Clean[0].Probe.ASN != 3320 {
		t.Errorf("probe ASN = %d, want 3320", out.Clean[0].Probe.ASN)
	}

	// Genuine AS switch with an unrouted stretch in the middle.
	sw := echo.Series{
		Probe: echo.Probe{ID: 2, ASN: 3320},
		V4: []echo.Span{
			{Start: 0, End: 900, Echo: homeA},
			{Start: 901, End: 920, Echo: unrouted},
			{Start: 921, End: 1900, Echo: foreign},
		},
	}
	out = Sanitize([]echo.Series{sw}, table, DefaultSanitizeConfig())
	if out.VirtualSplits != 1 || len(out.Clean) != 2 {
		t.Fatalf("switch probe: splits=%d clean=%d drops=%v", out.VirtualSplits, len(out.Clean), out.Drops)
	}
	for _, c := range out.Clean {
		if c.Probe.ASN == 0 {
			t.Error("AS-0 virtual probe emitted")
		}
		for _, sp := range c.V4 {
			if sp.Echo == unrouted {
				t.Error("unrouted span survived into a split part")
			}
		}
	}
}
