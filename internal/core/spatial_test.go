package core

import (
	"net/netip"
	"testing"

	"dynamips/internal/bgp"
	"dynamips/internal/echo"
	"dynamips/internal/stats"
)

func v6Series(id int, asn uint32, prefixes []string, hoursEach int64) echo.Series {
	ser := echo.Series{Probe: echo.Probe{ID: id, ASN: asn}}
	for i, ps := range prefixes {
		p := netip.MustParsePrefix(ps)
		addr := p.Addr().Next() // host inside the /64
		ser.V6 = append(ser.V6, echo.Span{
			Start: int64(i) * hoursEach, End: int64(i+1)*hoursEach - 1,
			Echo: addr, Src: addr,
		})
	}
	return ser
}

func TestCPLSpectra(t *testing.T) {
	ser := v6Series(1, 3320, []string{
		"2003:1000:0:100::/64",
		"2003:1000:0:1f0::/64",  // CPL 56 with previous
		"2003:1000:40:100::/64", // CPL 41
	}, 100)
	pas := Analyze([]echo.Series{ser}, DefaultExtractConfig())
	spec := CPLSpectra(pas)[3320]
	if spec == nil {
		t.Fatal("no spectrum")
	}
	if spec.TotalChanges() != 2 {
		t.Fatalf("total changes = %d", spec.TotalChanges())
	}
	if spec.Changes[56] != 1 || spec.Changes[41] != 1 {
		t.Errorf("changes histogram: 56=%d 41=%d", spec.Changes[56], spec.Changes[41])
	}
	if spec.Probes[56] != 1 || spec.Probes[41] != 1 {
		t.Errorf("probe histogram wrong")
	}
	if got := spec.MassAtLeast(48); got != 0.5 {
		t.Errorf("MassAtLeast(48) = %v", got)
	}
	if m := spec.ModeCPL(); m != 41 && m != 56 {
		t.Errorf("ModeCPL = %d", m)
	}
}

func TestUniquePrefixesAndPoolBoundary(t *testing.T) {
	var table bgp.Table
	table.Announce(netip.MustParsePrefix("2003::/19"), 3320)
	// Probe hops across many /56s inside one /40.
	var prefixes []string
	for i := 0; i < 8; i++ {
		prefixes = append(prefixes, netip.MustParsePrefix("2003:1000::/40").String())
		p := netip.MustParseAddr("2003:1000::").As16()
		p[5] = byte(i + 1) // vary bits 40..47: distinct /48s inside one /40
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom16(p), 64).String()
	}
	ser := v6Series(1, 3320, prefixes, 500)
	pas := Analyze([]echo.Series{ser}, DefaultExtractConfig())
	dists := UniquePrefixes(pas, &table)
	d := dists[3320]
	if d == nil {
		t.Fatal("no distribution")
	}
	if got := d.PerLen[64].Median(); got != 8 {
		t.Errorf("unique /64s = %v", got)
	}
	if got := d.PerLen[40].Median(); got != 1 {
		t.Errorf("unique /40s = %v", got)
	}
	if got := d.BGPDist.Median(); got != 1 {
		t.Errorf("unique BGP prefixes = %v", got)
	}
	l, ok := InferPoolBoundary(d, 3)
	if !ok || l != 40 {
		t.Errorf("InferPoolBoundary = %d, %v; want 40", l, ok)
	}
}

func TestInferPoolBoundaryEmpty(t *testing.T) {
	d := &UniquePrefixDist{PerLen: map[int]*stats.ECDF{}}
	if _, ok := InferPoolBoundary(d, 3); ok {
		t.Error("empty distribution inferred a boundary")
	}
}

func TestTable2(t *testing.T) {
	var table bgp.Table
	table.Announce(netip.MustParsePrefix("81.0.0.0/10"), 3215)
	table.Announce(netip.MustParsePrefix("90.0.0.0/9"), 3215)
	table.Announce(netip.MustParsePrefix("2003::/19"), 3320)

	ser := echo.Series{Probe: echo.Probe{ID: 1, ASN: 3215}}
	addrs := []string{
		"81.10.0.1",  // base
		"81.10.0.99", // same /24, same BGP
		"81.20.0.1",  // diff /24, same BGP
		"90.1.2.3",   // diff /24, diff BGP
		"8.8.8.8",    // unrouted in this table
	}
	for i, a := range addrs {
		ser.V4 = append(ser.V4, echo.Span{Start: int64(i) * 10, End: int64(i)*10 + 9, Echo: netip.MustParseAddr(a)})
	}
	ser.V6 = []echo.Span{
		{Start: 0, End: 9, Echo: netip.MustParseAddr("2003:1::1")},
		{Start: 10, End: 19, Echo: netip.MustParseAddr("2003:2::1")},
	}
	pas := Analyze([]echo.Series{ser}, DefaultExtractConfig())
	rows := Table2(pas, &table)
	r := rows[3215]
	if r == nil {
		t.Fatal("no row")
	}
	if r.V4Changes != 4 {
		t.Fatalf("v4 changes = %d", r.V4Changes)
	}
	if r.Diff24 != 3 {
		t.Errorf("Diff24 = %d, want 3", r.Diff24)
	}
	if r.DiffBGP4 != 1 {
		t.Errorf("DiffBGP4 = %d, want 1", r.DiffBGP4)
	}
	if r.V4Unrouted != 1 {
		t.Errorf("V4Unrouted = %d", r.V4Unrouted)
	}
	if r.V6Changes != 1 || r.DiffBGP6 != 0 {
		t.Errorf("v6: %+v", r)
	}
	d24, db4, db6 := r.Pct()
	if d24 != 75 || db4 != 25 || db6 != 0 {
		t.Errorf("Pct = %v, %v, %v", d24, db4, db6)
	}
}

func TestTable2PctEmpty(t *testing.T) {
	var r Table2Row
	a, b, c := r.Pct()
	if a != 0 || b != 0 || c != 0 {
		t.Error("empty row pct not zero")
	}
}
