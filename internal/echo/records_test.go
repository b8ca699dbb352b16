package echo

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// probeSrc is the private source address a probe behind a home NAT reports.
var probeSrc = netip.MustParseAddr("192.168.1.2")

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
			{Start: 0, End: 5, Echo: netip.MustParseAddr("81.10.0.1"), Src: probeSrc},
			{Start: 6, End: 9, Echo: netip.MustParseAddr("81.10.0.2"), Src: probeSrc},
			{Start: 20, End: 22, Echo: netip.MustParseAddr("81.10.0.2"), Src: probeSrc},
		},
		V6: []Span{
			{Start: 0, End: 9, Echo: netip.MustParseAddr("2003:1000::1"), Src: netip.MustParseAddr("2003:1000::1")},
		},
	}
	recs := ser.Expand()
	if len(recs) != 10+3+10 {
		t.Fatalf("expanded to %d records", len(recs))
	}
	// Compress takes the records in any order: as expanded, reversed, or
	// shuffled.
	reversed := slices.Clone(recs)
	slices.Reverse(reversed)
	shuffled := slices.Clone(recs)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, in := range [][]Record{recs, reversed, shuffled} {
		back := Compress(in)
		if len(back) != 1 || !reflect.DeepEqual(back[0], ser) {
			t.Errorf("round trip: %+v, want %+v", back, ser)
		}
	}
}

func TestCompressMergesAdjacentAndDropsDuplicates(t *testing.T) {
	a := netip.MustParseAddr("81.10.0.1")
	b := netip.MustParseAddr("81.10.0.2")
	recs := []Record{
		{ProbeID: 1, Hour: 2, Family: 4, Echo: a},
		{ProbeID: 1, Hour: 1, Family: 4, Echo: a},
		{ProbeID: 1, Hour: 2, Family: 4, Echo: a}, // duplicate hour
		{ProbeID: 1, Hour: 2, Family: 4, Echo: b}, // duplicate hour, another echo: the first record wins
		{ProbeID: 1, Hour: 3, Family: 4, Echo: a},
	}
	out := Compress(recs)
	if len(out) != 1 || len(out[0].V4) != 1 {
		t.Fatalf("Compress = %+v", out)
	}
	if out[0].V4[0] != (Span{Start: 1, End: 3, Echo: a}) {
		t.Errorf("span = %+v", out[0].V4[0])
	}
}

func TestRecordsJSONLRoundTrip(t *testing.T) {
	recs := []Record{
		{ProbeID: 1, Hour: 5, Family: 4, Echo: netip.MustParseAddr("81.10.0.1"), Src: probeSrc},
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
	good := `{"prb_id":1,"hour":0,"af":4,"x_client_ip":"81.10.0.1","src_addr":"192.168.1.2"}` + "\n"
	bad := append([]struct{ name, line string }{{"not json", "{not json}"}}, invalidRecords...)
	for _, c := range bad {
		_, err := ReadRecords(bytes.NewBufferString(good + c.line + "\n"))
		if err == nil {
			t.Errorf("%s: bad line accepted", c.name)
		} else if !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %q does not name line 2", c.name, err)
		}
	}
}

func TestSeriesJSONLRoundTrip(t *testing.T) {
	series := []Series{
		{
			Probe: Probe{ID: 1, ASN: 3320, Tags: []string{"home"}, SubscriberID: 9},
			V4:    []Span{{Start: 0, End: 5, Echo: netip.MustParseAddr("81.10.0.1"), Src: probeSrc}},
			V6:    []Span{{Start: 2, End: 9, Echo: netip.MustParseAddr("2003::1"), Src: netip.MustParseAddr("2003::1")}},
		},
		{Probe: Probe{ID: 2}, V4: []Span{{Start: 3, End: 3, Echo: netip.MustParseAddr("81.10.0.2")}}},
	}
	var buf bytes.Buffer
	if err := WriteSeries(&buf, series); err != nil {
		t.Fatalf("WriteSeries: %v", err)
	}
	got, err := ReadSeries(&buf)
	if err != nil {
		t.Fatalf("ReadSeries: %v", err)
	}
	if !reflect.DeepEqual(got, series) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, series)
	}
	if h := got[0].ObservedHours(); h != 8 {
		t.Errorf("ObservedHours = %d, want 8 (the v6 coverage)", h)
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

// BenchmarkExpandHourly and BenchmarkCompressHourly are the RLE ablation: hourly records cost ~50x
// the space and proportional decode time versus RLE series.
func BenchmarkExpandHourly(b *testing.B) {
	ser := Series{Probe: Probe{ID: 1}}
	addr := netip.MustParseAddr("81.10.0.1")
	for i := int64(0); i < 100; i++ {
		ser.V4 = append(ser.V4, Span{Start: i * 24, End: i*24 + 23, Echo: addr, Src: probeSrc})
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
		ser.V4 = append(ser.V4, Span{Start: i * 24, End: i*24 + 23, Echo: addr, Src: probeSrc})
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

// invalidRecords are hourly records no series can hold: a record with no
// echoed address, one whose echo is of the other family, and one whose
// family is neither 4 nor 6. They seed FuzzRecordsToSeries too.
var invalidRecords = []struct{ name, line string }{
	{"no echo", `{"prb_id":1,"hour":0,"af":4,"src_addr":"192.168.1.2"}`},
	{"wrong family", `{"prb_id":1,"hour":0,"af":6,"x_client_ip":"81.10.0.1","src_addr":"192.168.1.2"}`},
	{"unknown family", `{"prb_id":1,"hour":0,"af":5,"x_client_ip":"81.10.0.1","src_addr":"192.168.1.2"}`},
}

// FuzzRecordsToSeries feeds arbitrary bytes through ReadRecords and
// Compress: nothing panics, every series passes ValidateSeries, and each
// (probe, family) covers exactly the distinct hours of its records.
func FuzzRecordsToSeries(f *testing.F) {
	for _, c := range invalidRecords {
		f.Add([]byte(c.line + "\n"))
	}
	f.Add([]byte(`{"prb_id":2,"hour":7,"af":6,"x_client_ip":"2003::1"}` + "\n" +
		`{"prb_id":2,"hour":5,"af":4,"x_client_ip":"81.10.0.1"}` + "\n" +
		`{"prb_id":2,"hour":6,"af":4,"x_client_ip":"81.10.0.2"}` + "\n" +
		`{"prb_id":1,"hour":5,"af":4,"x_client_ip":"81.10.0.1"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		type key struct{ probe, family int }
		hours := make(map[key]map[int64]bool)
		for _, r := range recs {
			k := key{r.ProbeID, r.Family}
			if hours[k] == nil {
				hours[k] = make(map[int64]bool)
			}
			hours[k][r.Hour] = true
		}
		covered := 0
		series := Compress(recs)
		for i := range series {
			s := &series[i]
			if err := ValidateSeries(s); err != nil {
				t.Fatalf("invalid series from valid records: %v", err)
			}
			for family, spans := range map[int][]Span{4: s.V4, 6: s.V6} {
				k := key{s.Probe.ID, family}
				n := 0
				for _, sp := range spans {
					for h := sp.Start; ; h++ {
						if !hours[k][h] {
							t.Fatalf("probe %d v%d covers hour %d, which no record has", k.probe, family, h)
						}
						n++
						if h == sp.End {
							break
						}
					}
				}
				if n != len(hours[k]) {
					t.Fatalf("probe %d v%d covers %d hours, records have %d", k.probe, family, n, len(hours[k]))
				}
				if n > 0 {
					covered++
				}
			}
		}
		if covered != len(hours) {
			t.Fatalf("series cover %d (probe, family) pairs, records have %d", covered, len(hours))
		}
	})
}
