package core

import (
	"math"
	"net/netip"
	"testing"

	"dynamips/internal/atlas"
	"dynamips/internal/isp"
	"dynamips/internal/stats"
)

// evolvingSeries changes daily for the first year, then weekly.
func evolvingSeries(id int, asn uint32) atlas.Series {
	ser := atlas.Series{Probe: atlas.Probe{ID: id, ASN: asn}}
	hour := int64(0)
	i := 0
	for hour < 8760 {
		end := hour + 23
		ser.V4 = append(ser.V4, atlas.Span{Start: hour, End: end,
			Echo: netip.AddrFrom4([4]byte{81, 1, byte(i >> 8), byte(i)})})
		hour = end + 1
		i++
	}
	for hour < 2*8760 {
		end := hour + 167
		ser.V4 = append(ser.V4, atlas.Span{Start: hour, End: end,
			Echo: netip.AddrFrom4([4]byte{81, 2, byte(i >> 8), byte(i)})})
		hour = end + 1
		i++
	}
	return ser
}

func TestCollectDurationsByEra(t *testing.T) {
	pas := Analyze([]atlas.Series{evolvingSeries(1, 3320)}, DefaultExtractConfig())
	eras := CollectDurationsByEra(pas, 8760)
	if len(eras) < 2 {
		t.Fatalf("eras = %d", len(eras))
	}
	y0 := eras[0].PerAS[3320]
	y1 := eras[1].PerAS[3320]
	if y0 == nil || y1 == nil {
		t.Fatal("missing era populations")
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if m := mean(y0.V4NonDS); math.Abs(m-24) > 1 {
		t.Errorf("year-0 mean = %v, want ~24", m)
	}
	if m := mean(y1.V4NonDS); math.Abs(m-168) > 2 {
		t.Errorf("year-1 mean = %v, want ~168", m)
	}
	// Default era length kicks in for non-positive values.
	if got := CollectDurationsByEra(pas, 0); len(got) != len(eras) {
		t.Errorf("default era length differs: %d vs %d", len(got), len(eras))
	}
}

func TestPolicyShiftLengthensDurations(t *testing.T) {
	p, ok := isp.ProfileByName("DTAG")
	if !ok {
		t.Fatal("no DTAG profile")
	}
	if p.Shift == nil {
		t.Fatal("DTAG profile lost its policy shift")
	}
	res, err := isp.Run(isp.Config{Profile: p, Subscribers: 300, Hours: 50400, Seed: 33})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	fleet, err := atlas.BuildFleet(res, atlas.FleetConfig{Probes: 200, Seed: 34, JoinSpreadFrac: 0.1,
		UptimeMeanHours: 5000, DowntimeMeanHours: 5})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	pas := Analyze(atlas.Sanitize(fleet.Series, fleet.BGP, atlas.DefaultSanitizeConfig()).Clean,
		DefaultExtractConfig())
	eras := CollectDurationsByEra(pas, 8760)
	if len(eras) < 5 {
		t.Fatalf("eras = %d", len(eras))
	}
	early := eras[1].PerAS[3320]
	late := eras[4].PerAS[3320]
	if early == nil || late == nil {
		t.Fatal("missing eras")
	}
	_, dsEarly, _ := DurationCurves(early)
	_, dsLate, _ := DurationCurves(late)
	fe := fractionAt(dsEarly, 24)
	fl := fractionAt(dsLate, 24)
	if !(fl < fe) {
		t.Errorf("daily fraction did not drop after policy shift: early=%v late=%v", fe, fl)
	}
}

func fractionAt(curve []stats.Point, x float64) float64 {
	return stats.FractionAtOrBelow(curve, x)
}

func TestResponsivenessDurationsUnderReport(t *testing.T) {
	// A probe with exact 2-week assignments: the echo method sees 336h;
	// the responsiveness estimator splits sessions at unanswered probes.
	var ser atlas.Series
	ser.Probe = atlas.Probe{ID: 1, ASN: 2856}
	for i := int64(0); i < 20; i++ {
		ser.V4 = append(ser.V4, atlas.Span{Start: i * 336, End: i*336 + 335,
			Echo: netip.AddrFrom4([4]byte{86, 128, 0, byte(i)})})
	}
	pas := Analyze([]atlas.Series{ser}, DefaultExtractConfig())
	resp := ResponsivenessDurations(pas, DefaultResponsivenessConfig())[2856]
	if len(resp) == 0 {
		t.Fatal("no inferred sessions")
	}
	echo := SandwichedDurations(pas[0].V4)
	bias := MedianBias(echo, resp)
	if bias < 3 {
		t.Errorf("bias = %v, want substantial under-reporting", bias)
	}
	// Sessions never exceed the true assignment duration.
	for _, d := range resp {
		if d > 336 {
			t.Fatalf("inferred session %vh exceeds true 336h assignment", d)
		}
	}
}

func TestResponsivenessPerfectProber(t *testing.T) {
	var ser atlas.Series
	ser.Probe = atlas.Probe{ID: 1, ASN: 1}
	for i := int64(0); i < 5; i++ {
		ser.V4 = append(ser.V4, atlas.Span{Start: i * 100, End: i*100 + 99,
			Echo: netip.AddrFrom4([4]byte{81, 0, 0, byte(i)})})
	}
	pas := Analyze([]atlas.Series{ser}, DefaultExtractConfig())
	resp := ResponsivenessDurations(pas, ResponsivenessConfig{ResponseProb: 1, MaxSilentHours: 0, Seed: 1})[1]
	if len(resp) != 5 {
		t.Fatalf("sessions = %v", resp)
	}
	for _, d := range resp {
		if d != 100 {
			t.Errorf("perfect prober session = %v, want 100", d)
		}
	}
}

func TestMedianBiasEdgeCases(t *testing.T) {
	if MedianBias(nil, []float64{1}) != 0 || MedianBias([]float64{1}, nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
	if got := MedianBias([]float64{10, 10, 10}, []float64{5, 5, 5}); got != 2 {
		t.Errorf("bias = %v, want 2", got)
	}
}
