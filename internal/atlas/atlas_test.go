package atlas

import (
	"bytes"
	"context"
	"net/netip"
	"testing"

	"dynamips/internal/bgp"
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

func TestSpanBasics(t *testing.T) {
	sp := Span{Start: 10, End: 13, Echo: netip.MustParseAddr("2003:1000:0:100::2:1")}
	if sp.Hours() != 4 {
		t.Errorf("Hours = %d", sp.Hours())
	}
	if sp.Prefix64() != netip.MustParsePrefix("2003:1000:0:100::/64") {
		t.Errorf("Prefix64 = %v", sp.Prefix64())
	}
}

func TestExpandCompressRoundTrip(t *testing.T) {
	ser := Series{
		Probe: Probe{ID: 7},
		V4: []Span{
			{Start: 0, End: 5, Echo: netip.MustParseAddr("81.10.0.1"), Src: privateProbeSrc},
			{Start: 6, End: 9, Echo: netip.MustParseAddr("81.10.0.2"), Src: privateProbeSrc},
			{Start: 20, End: 22, Echo: netip.MustParseAddr("81.10.0.2"), Src: privateProbeSrc},
		},
		V6: []Span{
			{Start: 0, End: 9, Echo: netip.MustParseAddr("2003:1000::1"), Src: netip.MustParseAddr("2003:1000::1")},
		},
	}
	recs := ser.Expand()
	if len(recs) != 10+3+10 {
		t.Fatalf("expanded to %d records", len(recs))
	}
	back := Compress(recs)
	if len(back) != 1 {
		t.Fatalf("compressed to %d series", len(back))
	}
	got := back[0]
	if got.Probe.ID != 7 || len(got.V4) != 3 || len(got.V6) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range ser.V4 {
		if got.V4[i] != ser.V4[i] {
			t.Errorf("V4[%d] = %+v, want %+v", i, got.V4[i], ser.V4[i])
		}
	}
	if got.V6[0] != ser.V6[0] {
		t.Errorf("V6[0] = %+v", got.V6[0])
	}
}

func TestCompressMergesAdjacentAndDropsDuplicates(t *testing.T) {
	a := netip.MustParseAddr("81.10.0.1")
	recs := []Record{
		{ProbeID: 1, Hour: 2, Family: 4, Echo: a},
		{ProbeID: 1, Hour: 1, Family: 4, Echo: a},
		{ProbeID: 1, Hour: 2, Family: 4, Echo: a}, // duplicate hour
		{ProbeID: 1, Hour: 3, Family: 4, Echo: a},
	}
	out := Compress(recs)
	if len(out) != 1 || len(out[0].V4) != 1 {
		t.Fatalf("Compress = %+v", out)
	}
	if out[0].V4[0].Start != 1 || out[0].V4[0].End != 3 {
		t.Errorf("span = %+v", out[0].V4[0])
	}
}

func TestRecordsJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{ProbeID: 1, Hour: 5, Family: 4, Echo: netip.MustParseAddr("81.10.0.1"), Src: privateProbeSrc},
		{ProbeID: 1, Hour: 5, Family: 6, Echo: netip.MustParseAddr("2003::1"), Src: netip.MustParseAddr("2003::1")},
	}
	var buf bytes.Buffer
	if err := WriteRecords(&buf, recs); err != nil {
		t.Fatalf("WriteRecords: %v", err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("ReadRecords: %v", err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Errorf("round trip: %+v", got)
	}
}

func TestReadRecordsBadLine(t *testing.T) {
	if _, err := ReadRecords(bytes.NewBufferString("{not json}\n")); err == nil {
		t.Error("bad line accepted")
	}
}

func TestSeriesJSONLRoundTrip(t *testing.T) {
	res := simResult(t)
	f := cleanFleet(t, res, 20)
	var buf bytes.Buffer
	if err := WriteSeries(&buf, f.Series); err != nil {
		t.Fatalf("WriteSeries: %v", err)
	}
	got, err := ReadSeries(&buf)
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
	ser := Series{V4: []Span{{Start: 0, End: 10, Echo: netip.MustParseAddr("81.10.0.1")}}}
	PrependTestAddr(&ser)
	if len(ser.V4) != 2 || ser.V4[0].Echo != TestAddr || ser.V4[1].Start != 2 {
		t.Errorf("PrependTestAddr: %+v", ser.V4)
	}
	// Too-short first span: no-op.
	short := Series{V4: []Span{{Start: 0, End: 1, Echo: netip.MustParseAddr("81.10.0.1")}}}
	PrependTestAddr(&short)
	if len(short.V4) != 1 {
		t.Errorf("short PrependTestAddr modified series")
	}
}

func TestDualStackCriterion(t *testing.T) {
	ser := Series{
		V4: []Span{{Start: 0, End: 799}},
		V6: []Span{{Start: 0, End: 100}},
	}
	if ser.DualStack(720) {
		t.Error("100h of v6 counted as dual-stack")
	}
	ser.V6 = []Span{{Start: 0, End: 799}}
	if !ser.DualStack(720) {
		t.Error("800h of both not counted as dual-stack")
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

// BenchmarkCompressVsExpand is the RLE ablation: hourly records cost ~50x
// the space and proportional decode time versus RLE series.
func BenchmarkExpandHourly(b *testing.B) {
	ser := Series{Probe: Probe{ID: 1}}
	addr := netip.MustParseAddr("81.10.0.1")
	for i := int64(0); i < 100; i++ {
		ser.V4 = append(ser.V4, Span{Start: i * 24, End: i*24 + 23, Echo: addr, Src: privateProbeSrc})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ser.Expand(); len(got) != 2400 {
			b.Fatal("bad expansion")
		}
	}
}

func BenchmarkCompressHourly(b *testing.B) {
	ser := Series{Probe: Probe{ID: 1}}
	addr := netip.MustParseAddr("81.10.0.1")
	for i := int64(0); i < 100; i++ {
		ser.V4 = append(ser.V4, Span{Start: i * 24, End: i*24 + 23, Echo: addr, Src: privateProbeSrc})
	}
	recs := ser.Expand()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Compress(recs); len(got) != 1 {
			b.Fatal("bad compression")
		}
	}
}

func TestValidateSeries(t *testing.T) {
	good := Series{
		Probe: Probe{ID: 1},
		V4:    []Span{{Start: 0, End: 5, Echo: netip.MustParseAddr("81.10.0.1")}},
		V6:    []Span{{Start: 0, End: 5, Echo: netip.MustParseAddr("2003::1")}},
	}
	if err := ValidateSeries(&good); err != nil {
		t.Fatalf("valid series rejected: %v", err)
	}
	bad := map[string]Series{
		"inverted": {V4: []Span{{Start: 5, End: 0, Echo: netip.MustParseAddr("81.10.0.1")}}},
		"no echo":  {V4: []Span{{Start: 0, End: 5}}},
		"family":   {V4: []Span{{Start: 0, End: 5, Echo: netip.MustParseAddr("2003::1")}}},
		"overlap": {V4: []Span{
			{Start: 0, End: 5, Echo: netip.MustParseAddr("81.10.0.1")},
			{Start: 3, End: 9, Echo: netip.MustParseAddr("81.10.0.2")},
		}},
	}
	for name, ser := range bad {
		ser := ser
		if err := ValidateSeries(&ser); err == nil {
			t.Errorf("%s: invalid series accepted", name)
		}
	}
}

func TestReadSeriesRejectsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(`{"probe":{"prb_id":1},"v4":[{"start":9,"end":2,"x_client_ip":"81.10.0.1","src_addr":"192.168.1.2"}],"v6":null}` + "\n")
	if _, err := ReadSeries(&buf); err == nil {
		t.Error("corrupt series file accepted")
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
	ser := Series{
		Probe: Probe{ID: 1, ASN: 3320},
		V4: []Span{
			{Start: 0, End: 800, Echo: homeA},
			{Start: 801, End: 820, Echo: unrouted},
			{Start: 821, End: 1700, Echo: homeB},
		},
	}
	out := Sanitize([]Series{ser}, table, DefaultSanitizeConfig())
	if len(out.Clean) != 1 || out.Drops[DropMultihomed] != 0 {
		t.Fatalf("transiently unrouted probe mishandled: clean=%d drops=%v", len(out.Clean), out.Drops)
	}
	if out.Clean[0].Probe.ASN != 3320 {
		t.Errorf("probe ASN = %d, want 3320", out.Clean[0].Probe.ASN)
	}

	// Genuine AS switch with an unrouted stretch in the middle.
	sw := Series{
		Probe: Probe{ID: 2, ASN: 3320},
		V4: []Span{
			{Start: 0, End: 900, Echo: homeA},
			{Start: 901, End: 920, Echo: unrouted},
			{Start: 921, End: 1900, Echo: foreign},
		},
	}
	out = Sanitize([]Series{sw}, table, DefaultSanitizeConfig())
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
