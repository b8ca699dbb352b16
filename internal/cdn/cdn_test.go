package cdn

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"

	"dynamips/internal/rir"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	cfg := DefaultGenConfig(1)
	cfg.Scale = 0.15
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds
}

func TestAssociationKeys(t *testing.T) {
	a := Association{K24: 0x51100A, K64: 0x2003100000000100}
	if got := a.P24().String(); got != "81.16.10.0/24" {
		t.Errorf("P24 = %s", got)
	}
	if got := a.P64().String(); got != "2003:1000:0:100::/64" {
		t.Errorf("P64 = %s", got)
	}
}

func TestGenerateBasics(t *testing.T) {
	ds := smallDataset(t)
	if len(ds.Assocs) == 0 {
		t.Fatal("no associations generated")
	}
	if ds.Mismatches == 0 {
		t.Error("no mismatches injected/filtered")
	}
	if ds.RawCount != len(ds.Assocs)+ds.Mismatches {
		t.Errorf("raw=%d filtered=%d mismatches=%d", ds.RawCount, len(ds.Assocs), ds.Mismatches)
	}
	// Every surviving association is ASN-consistent.
	for i, a := range ds.Assocs {
		if i%1000 != 0 {
			continue // sampling keeps the test fast
		}
		asn4, _, ok4 := ds.BGP.Origin(a.P24().Addr())
		asn6, _, ok6 := ds.BGP.Origin(a.P64().Addr())
		if !ok4 || !ok6 || asn4 != asn6 {
			t.Fatalf("mismatched association survived: %v %v", a.P24(), a.P64())
		}
		if int(a.Day) >= ds.Days {
			t.Fatalf("day %d outside window", a.Day)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(7)
	cfg.Scale = 0.05
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Assocs) != len(b.Assocs) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Assocs), len(b.Assocs))
	}
	for i := range a.Assocs {
		if a.Assocs[i] != b.Assocs[i] {
			t.Fatalf("association %d differs", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(GenConfig{Days: 0}); err == nil {
		t.Error("zero-day window accepted")
	}
}

func TestEpisodes(t *testing.T) {
	assocs := []Association{
		{K64: 1, K24: 10, Day: 0, Hits: 5},
		{K64: 1, K24: 10, Day: 1, Hits: 5},
		{K64: 1, K24: 10, Day: 4, Hits: 5},  // gap of 2: bridged
		{K64: 1, K24: 11, Day: 5, Hits: 5},  // /24 change: new episode
		{K64: 1, K24: 11, Day: 40, Hits: 5}, // gap > 7: new episode
		{K64: 2, K24: 10, Day: 3, Hits: 9},
	}
	eps := Episodes(assocs, DefaultEpisodeConfig())
	if len(eps) != 4 {
		t.Fatalf("episodes = %+v", eps)
	}
	if eps[0].K64 != 1 || eps[0].StartDay != 0 || eps[0].EndDay != 4 || eps[0].Days() != 5 {
		t.Errorf("episode 0: %+v", eps[0])
	}
	if eps[1].K24 != 11 || eps[1].Days() != 1 {
		t.Errorf("episode 1: %+v", eps[1])
	}
	if eps[2].StartDay != 40 {
		t.Errorf("episode 2: %+v", eps[2])
	}
	if eps[3].K64 != 2 {
		t.Errorf("episode 3: %+v", eps[3])
	}
	if eps[0].Hits != 15 {
		t.Errorf("episode 0 hits = %d", eps[0].Hits)
	}
}

func TestMobileLabelAgainstGroundTruth(t *testing.T) {
	ds := smallDataset(t)
	mobile := MobileLabel(ds.Assocs, 350)
	var agree, total int
	for _, a := range ds.Assocs {
		asn, _, ok := ds.BGP.Origin(a.P24().Addr())
		if !ok {
			continue
		}
		total++
		if mobile[a.K24] == ds.TruthMobile[asn] {
			agree++
		}
	}
	if total == 0 {
		t.Fatal("nothing to classify")
	}
	if frac := float64(agree) / float64(total); frac < 0.95 {
		t.Errorf("mobile labeling agreement = %v, want > 0.95", frac)
	}
}

func TestDurationShapes(t *testing.T) {
	ds := smallDataset(t)
	mobile := MobileLabel(ds.Assocs, 350)
	eps := Episodes(ds.Assocs, DefaultEpisodeConfig())
	g := GroupDurations(ds, eps, mobile)

	// §4.2: fixed durations are dramatically longer than mobile; the
	// paper reports a 60x median gap and 75% of mobile <= 1 day.
	fm, mm := g.Fixed.Median(), g.Mobile.Median()
	if !(fm > 10*mm) {
		t.Errorf("fixed median %v not >> mobile median %v", fm, mm)
	}
	if q := g.Mobile.Quantile(0.75); q > 3 {
		t.Errorf("mobile p75 = %v days, want small", q)
	}
	// Fig. 2 orderings: DTAG shortest, BT next, Comcast longest.
	dtag := g.ByOperator[3320].Median()
	bt := g.ByOperator[2856].Median()
	comcast := g.ByOperator[7922].Median()
	if !(dtag < bt && bt < comcast) {
		t.Errorf("operator medians: DTAG=%v BT=%v Comcast=%v, want increasing", dtag, bt, comcast)
	}
	// DTAG median ~1 week, BT ~2 weeks (paper: "closely match").
	if dtag < 3 || dtag > 14 {
		t.Errorf("DTAG median = %v days, want ~7", dtag)
	}
	if bt < 8 || bt > 28 {
		t.Errorf("BT median = %v days, want ~14", bt)
	}
	// Fig. 3: RIPE mobile has a long tail (EE Ltd) versus other
	// registries' mobile populations.
	_, ripeMobile := g.RegistryBox(rir.RIPENCC)
	_, arinMobile := g.RegistryBox(rir.ARIN)
	if !(ripeMobile.Q3 > 3*arinMobile.Q3) {
		t.Errorf("RIPE mobile q3 %v not >> ARIN mobile q3 %v (EE Ltd tail)", ripeMobile.Q3, arinMobile.Q3)
	}
	// ARIN fixed is the longest-lived fixed population.
	arinFixed, _ := g.RegistryBox(rir.ARIN)
	ripeFixed, _ := g.RegistryBox(rir.RIPENCC)
	if !(arinFixed.Median > ripeFixed.Median) {
		t.Errorf("ARIN fixed median %v not > RIPE fixed median %v", arinFixed.Median, ripeFixed.Median)
	}
}

func TestDegrees(t *testing.T) {
	ds := smallDataset(t)
	mobile := MobileLabel(ds.Assocs, 350)
	dd := Degrees(ds.Assocs, mobile)
	mp := dd.MobileUnique.PeakX()
	fp := dd.FixedUnique.PeakX()
	if math.IsNaN(mp) || math.IsNaN(fp) {
		t.Fatal("empty degree distributions")
	}
	// Mobile /24s multiplex far more /64s (Fig. 4); the gap grows with
	// Scale (the paper's full population shows ~400x), so at test scale
	// only the order-of-magnitude separation is asserted.
	if !(mp > 5*fp) {
		t.Errorf("mobile peak %v not >> fixed peak %v", mp, fp)
	}
	// Fixed peak lands near the 150-200 /64s-per-/24 regime.
	if fp < 50 || fp > 600 {
		t.Errorf("fixed unique peak = %v, want O(150-200)", fp)
	}
	// 87%-style /64 connectivity of one in mobile.
	if c := dd.Connectivity1Frac[true]; c < 0.6 {
		t.Errorf("mobile connectivity-1 fraction = %v, want high", c)
	}
}

func TestTrailingZeros(t *testing.T) {
	ds := smallDataset(t)
	mobile := MobileLabel(ds.Assocs, 350)
	tz := TrailingZerosByRegistry(ds, mobile)
	ripe := tz[rir.RIPENCC]
	if ripe == nil || ripe.Total == 0 {
		t.Fatal("no RIPE trailing-zero data")
	}
	// RIPE: over 60% of /64s have >= 8 trailing zero bits (/56 or
	// shorter inferred delegation) per Fig. 7.
	frac56OrShorter := ripe.Frac(56) + ripe.Frac(52) + ripe.Frac(48)
	if frac56OrShorter < 0.5 {
		t.Errorf("RIPE /56-or-shorter fraction = %v, want > 0.5", frac56OrShorter)
	}
	if ripe.InferableFrac() < 0.5 {
		t.Errorf("RIPE inferable fraction = %v", ripe.InferableFrac())
	}
	// LACNIC is the low-inference outlier (15.1% in the paper): BR Cable
	// delegates bare /64s.
	lac := tz[rir.LACNIC]
	if lac == nil {
		t.Fatal("no LACNIC data")
	}
	if !(lac.InferableFrac() < ripe.InferableFrac()/2) {
		t.Errorf("LACNIC inferable %v not << RIPE %v", lac.InferableFrac(), ripe.InferableFrac())
	}
	// Mobile /64s show ~no trailing-zero structure.
	if f := MobileTrailingZeroFrac(ds, mobile); f > 0.2 {
		t.Errorf("mobile trailing-zero fraction = %v, want ~1/16 by chance", f)
	}
}

func TestClassifyTrailingZeros(t *testing.T) {
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("2a01:c000:0:ff00::/64"), // /56
		netip.MustParsePrefix("2a01:c000:0:fff0::/64"), // /60
		netip.MustParsePrefix("2a01:c000:0:f000::/64"), // /52
		netip.MustParsePrefix("2a01:c000:1::/64"),      // /48
		netip.MustParsePrefix("2a01:c000:0:ffff::/64"), // none
	}
	b := ClassifyTrailingZeros(prefixes)
	if b.Total != 5 || b.Inferable != 4 {
		t.Fatalf("buckets: %+v", b)
	}
	for l, want := range map[int]int{56: 1, 60: 1, 52: 1, 48: 1} {
		if b.Counts[l] != want {
			t.Errorf("Counts[%d] = %d, want %d", l, b.Counts[l], want)
		}
	}
	if f := b.InferableFrac(); f != 0.8 {
		t.Errorf("InferableFrac = %v", f)
	}
	if f := b.Frac(56); f != 0.2 {
		t.Errorf("Frac(56) = %v", f)
	}
	empty := ClassifyTrailingZeros(nil)
	if empty.InferableFrac() != 0 || empty.Frac(56) != 0 {
		t.Error("empty buckets nonzero")
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := DefaultGenConfig(1)
	cfg.Scale = 0.1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEpisodes(b *testing.B) {
	cfg := DefaultGenConfig(1)
	cfg.Scale = 0.1
	ds, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Episodes(ds.Assocs, DefaultEpisodeConfig())
	}
}

func TestEpisodesCustomGap(t *testing.T) {
	assocs := []Association{
		{K64: 1, K24: 10, Day: 0, Hits: 1},
		{K64: 1, K24: 10, Day: 3, Hits: 1},
	}
	// Gap of 2 days splits when MaxGapDays is 1.
	eps := Episodes(assocs, EpisodeConfig{MaxGapDays: 1})
	if len(eps) != 2 {
		t.Fatalf("episodes = %+v", eps)
	}
	// Non-positive config falls back to the default (bridged).
	eps = Episodes(assocs, EpisodeConfig{})
	if len(eps) != 1 {
		t.Fatalf("default-config episodes = %+v", eps)
	}
}

func TestGroupDurationsUnknownRegistry(t *testing.T) {
	ds := smallDataset(t)
	// A /64 outside every RIR delegation contributes to the global
	// split but to no registry bucket.
	eps := []Episode{{K64: 0x20010db8_00000000, K24: 10, StartDay: 0, EndDay: 4}}
	g := GroupDurations(ds, eps, map[uint32]bool{})
	if g.Fixed.Len() != 1 {
		t.Errorf("global fixed count = %d", g.Fixed.Len())
	}
	for reg, pair := range g.ByRegistry {
		if pair.Fixed.Len()+pair.Mobile.Len() != 0 {
			t.Errorf("registry %v got the undelegated episode", reg)
		}
	}
}

// TestEpisodesOrderInsensitive: a /64 can report two /24s on the same day;
// episode extraction must not depend on the input permutation.
func TestEpisodesOrderInsensitive(t *testing.T) {
	base := []Association{
		{K64: 9, K24: 20, Day: 0, Hits: 3},
		{K64: 9, K24: 21, Day: 0, Hits: 4},
		{K64: 9, K24: 21, Day: 1, Hits: 2},
		{K64: 9, K24: 20, Day: 2, Hits: 1},
		{K64: 5, K24: 20, Day: 0, Hits: 8},
	}
	want := Episodes(base, DefaultEpisodeConfig())
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		shuf := append([]Association(nil), base...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		got := Episodes(shuf, DefaultEpisodeConfig())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: episodes depend on input order:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestMobileLabelThresholdBoundary: the threshold is documented everywhere
// as the degree ABOVE which a /24 is mobile — the boundary itself is fixed.
func TestMobileLabelThresholdBoundary(t *testing.T) {
	var assocs []Association
	for i := 0; i < 5; i++ {
		assocs = append(assocs, Association{K24: 1, K64: uint64(i)})
	}
	for i := 0; i < 6; i++ {
		assocs = append(assocs, Association{K24: 2, K64: uint64(100 + i)})
	}
	mobile := MobileLabel(assocs, 5)
	if mobile[1] {
		t.Error("degree == threshold labeled mobile; doc says strictly above")
	}
	if !mobile[2] {
		t.Error("degree > threshold not labeled mobile")
	}
}

// TestGenerateWorkersEquivalence: the fan-out width must not change a
// single association.
func TestGenerateWorkersEquivalence(t *testing.T) {
	cfg := DefaultGenConfig(7)
	cfg.Scale = 0.05
	cfg.Workers = 1
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Assocs) != len(b.Assocs) || a.RawCount != b.RawCount || a.Mismatches != b.Mismatches {
		t.Fatalf("shape differs: %d/%d/%d vs %d/%d/%d",
			len(a.Assocs), a.RawCount, a.Mismatches, len(b.Assocs), b.RawCount, b.Mismatches)
	}
	for i := range a.Assocs {
		if a.Assocs[i] != b.Assocs[i] {
			t.Fatalf("association %d differs: %+v vs %+v", i, a.Assocs[i], b.Assocs[i])
		}
	}
}
