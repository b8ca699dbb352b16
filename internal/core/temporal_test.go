package core

import (
	"math"
	"net/netip"
	"testing"

	"dynamips/internal/atlas"
	"dynamips/internal/stats"
)

// fixtureSeries builds a probe with deterministic daily IPv4 changes and
// monthly IPv6 changes over a year, dual-stack.
func fixtureSeries(id int, asn uint32) atlas.Series {
	ser := atlas.Series{Probe: atlas.Probe{ID: id, ASN: asn}}
	for d := int64(0); d < 365; d++ {
		ser.V4 = append(ser.V4, atlas.Span{
			Start: d * 24, End: d*24 + 23,
			Echo: netip.AddrFrom4([4]byte{81, 10, byte(d >> 8), byte(d)}),
			Src:  netip.MustParseAddr("192.168.1.2"),
		})
	}
	for m := int64(0); m < 12; m++ {
		p := netip.MustParseAddr("2003:1000::").As16()
		p[6] = byte(m)
		addr := netip.AddrFrom16(p)
		ser.V6 = append(ser.V6, atlas.Span{
			Start: m * 730, End: m*730 + 729,
			Echo: addr, Src: addr,
		})
	}
	return ser
}

func TestAnalyzeAndCollectDurations(t *testing.T) {
	series := []atlas.Series{fixtureSeries(1, 3320), fixtureSeries(2, 3320)}
	pas := Analyze(series, DefaultExtractConfig())
	if len(pas) != 2 {
		t.Fatalf("analyzed %d probes", len(pas))
	}
	if !pas[0].DualStack {
		t.Error("fixture probe not dual-stack")
	}
	ds := CollectDurations(pas)
	d := ds[3320]
	if d == nil {
		t.Fatal("no durations for AS3320")
	}
	// 365 daily assignments -> 363 sandwiched per probe.
	if len(d.V4DS) != 2*363 {
		t.Errorf("V4DS samples = %d, want 726", len(d.V4DS))
	}
	for _, v := range d.V4DS {
		if v != 24 {
			t.Fatalf("duration %v, want 24", v)
		}
	}
	if len(d.V4NonDS) != 0 {
		t.Errorf("V4NonDS = %d", len(d.V4NonDS))
	}
	if len(d.V6Hr) != 2*10 {
		t.Errorf("V6 samples = %d, want 20", len(d.V6Hr))
	}
	nds, dsy, v6y := d.TotalYears()
	if nds != 0 || dsy <= 0 || v6y <= 0 {
		t.Errorf("TotalYears = %v, %v, %v", nds, dsy, v6y)
	}
}

func TestDurationCurves(t *testing.T) {
	d := &ASDurations{V4DS: []float64{24, 24, 24, 720}}
	_, ds, _ := DurationCurves(d)
	if len(ds) != 2 {
		t.Fatalf("curve = %+v", ds)
	}
	// 3*24=72h at d=24, 720h at d=720; fractions 72/792 and 1.0.
	if math.Abs(ds[0].Y-72.0/792) > 1e-9 || math.Abs(ds[1].Y-1) > 1e-9 {
		t.Errorf("curve = %+v", ds)
	}
	if got := stats.FractionAtOrBelow(ds, 100); math.Abs(got-72.0/792) > 1e-9 {
		t.Errorf("FractionAtOrBelow(100) = %v", got)
	}
}

func TestDetectPeriodicRenumbering(t *testing.T) {
	ds := map[uint32]*ASDurations{
		3320: {ASN: 3320, V4NonDS: repeat(24, 200), V4DS: repeat(24, 150), V6Hr: repeat(24, 100)},
		7922: {ASN: 7922, V4NonDS: []float64{5000, 9000, 12000}, V6Hr: []float64{8000}},
	}
	found := DetectPeriodicRenumbering(ds, 0.05, 0.5)
	if len(found) != 3 {
		t.Fatalf("found = %+v", found)
	}
	for _, f := range found {
		if f.ASN != 3320 {
			t.Errorf("non-periodic AS %d flagged", f.ASN)
		}
		if f.Modes[0].Period != 24 {
			t.Errorf("mode = %+v", f.Modes[0])
		}
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestMeasureSimultaneity(t *testing.T) {
	// Probe whose v4 and v6 change at the same hours.
	coupled := atlas.Series{Probe: atlas.Probe{ID: 1, ASN: 3320}}
	for d := int64(0); d < 60; d++ {
		coupled.V4 = append(coupled.V4, atlas.Span{
			Start: d * 24, End: d*24 + 23,
			Echo: netip.AddrFrom4([4]byte{81, 10, 0, byte(d)}),
		})
		p := netip.MustParseAddr("2003:1000::").As16()
		p[7] = byte(d)
		coupled.V6 = append(coupled.V6, atlas.Span{
			Start: d * 24, End: d*24 + 23,
			Echo: netip.AddrFrom16(p), Src: netip.AddrFrom16(p),
		})
	}
	// Probe whose v6 changes at offset hours.
	uncoupled := atlas.Series{Probe: atlas.Probe{ID: 2, ASN: 7922}}
	for d := int64(0); d < 60; d++ {
		uncoupled.V4 = append(uncoupled.V4, atlas.Span{
			Start: d * 24, End: d*24 + 23,
			Echo: netip.AddrFrom4([4]byte{24, 10, 0, byte(d)}),
		})
		p := netip.MustParseAddr("2601::").As16()
		p[7] = byte(d)
		uncoupled.V6 = append(uncoupled.V6, atlas.Span{
			Start: d*24 + 12, End: d*24 + 35,
			Echo: netip.AddrFrom16(p), Src: netip.AddrFrom16(p),
		})
	}
	pas := Analyze([]atlas.Series{coupled, uncoupled}, DefaultExtractConfig())
	sim := MeasureSimultaneity(pas)
	if got := sim[3320].Fraction(); got != 1 {
		t.Errorf("coupled fraction = %v, want 1", got)
	}
	if got := sim[7922].Fraction(); got != 0 {
		t.Errorf("uncoupled fraction = %v, want 0", got)
	}
	if sim[3320].V6Changes != 59 {
		t.Errorf("v6 changes = %d", sim[3320].V6Changes)
	}
	if (Simultaneity{}).Fraction() != 0 {
		t.Error("empty simultaneity fraction")
	}
}

func TestTable1(t *testing.T) {
	// One dual-stack probe with 363+ changes, one v4-only.
	dsSer := fixtureSeries(1, 3320)
	ndsSer := fixtureSeries(2, 3320)
	ndsSer.V6 = nil
	pas := Analyze([]atlas.Series{dsSer, ndsSer}, DefaultExtractConfig())
	rows := Table1(pas, map[uint32]string{3320: "DTAG"})
	if len(rows) != 1 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Name != "DTAG" || r.Probes != 2 || r.DSProbes != 1 {
		t.Errorf("row = %+v", r)
	}
	if r.V4Changes != 2*364 || r.DSV4Changes != 364 {
		t.Errorf("changes: %+v", r)
	}
	if r.V6Changes != 11 {
		t.Errorf("v6 changes = %d", r.V6Changes)
	}
	if s := r.DSV4Share(); math.Abs(s-0.5) > 1e-9 {
		t.Errorf("DS share = %v", s)
	}
	if r.String() == "" {
		t.Error("empty row render")
	}
	// Unknown ASN names fall back.
	rows2 := Table1(pas, nil)
	if rows2[0].Name != "AS3320" {
		t.Errorf("fallback name = %q", rows2[0].Name)
	}
}
