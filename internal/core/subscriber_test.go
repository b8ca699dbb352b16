package core

import (
	"net/netip"
	"testing"

	"dynamips/internal/echo"
)

func assignmentsFor(prefixes ...string) []Assignment[netip.Prefix] {
	var spans []echo.Span
	for i, ps := range prefixes {
		p := netip.MustParsePrefix(ps)
		spans = append(spans, echo.Span{
			Start: int64(i) * 100, End: int64(i)*100 + 99,
			Echo: p.Addr().Next(), Src: p.Addr().Next(),
		})
	}
	return V6Assignments(spans, DefaultExtractConfig())
}

func TestInferSubscriberLength(t *testing.T) {
	cases := []struct {
		name     string
		prefixes []string
		want     int
		ok       bool
	}{
		{
			name: "slash56 zeroing CPE",
			prefixes: []string{
				"2003:1000:0:100::/64",
				"2003:1000:0:4300::/64",
				"2003:1000:1:af00::/64",
			},
			want: 56, ok: true,
		},
		{
			name: "slash48 delegation (Netcologne)",
			prefixes: []string{
				"2001:4dd0:1::/64",
				"2001:4dd0:47::/64",
				"2001:4dd0:b2::/64",
			},
			want: 48, ok: true,
		},
		{
			name: "slash62 delegation (Kabel DE)",
			prefixes: []string{
				"2a02:8100:0:4::/64",
				"2a02:8100:0:a4::/64",
				"2a02:8100:1:b8::/64",
			},
			want: 62, ok: true,
		},
		{
			name: "scrambling CPE looks like /64",
			prefixes: []string{
				"2003:1000:0:11ab::/64",
				"2003:1000:0:42ff::/64",
				"2003:1000:0:9d01::/64",
			},
			want: 64, ok: true,
		},
		{
			name:     "single prefix: no inference",
			prefixes: []string{"2003:1000:0:100::/64"},
			ok:       false,
		},
		{
			name:     "no changes at all",
			prefixes: nil,
			ok:       false,
		},
	}
	for _, c := range cases {
		got, ok := InferSubscriberLength(assignmentsFor(c.prefixes...))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("%s: InferSubscriberLength = (%d, %v), want (%d, %v)", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestInferSubscriberLengthCap(t *testing.T) {
	// Prefixes sharing absurdly many zero bits cap at /32.
	as := assignmentsFor("2003::/64", "2004::/64")
	l, ok := InferSubscriberLength(as)
	if !ok || l != 32 {
		t.Errorf("capped inference = (%d, %v), want (32, true)", l, ok)
	}
}

func TestSubscriberLengths(t *testing.T) {
	mk := func(id int, asn uint32, prefixes ...string) echo.Series {
		var spans []echo.Span
		for i, ps := range prefixes {
			p := netip.MustParsePrefix(ps)
			spans = append(spans, echo.Span{
				Start: int64(i) * 1000, End: int64(i)*1000 + 999,
				Echo: p.Addr().Next(), Src: p.Addr().Next(),
			})
		}
		return echo.Series{Probe: echo.Probe{ID: id, ASN: asn}, V6: spans}
	}
	series := []echo.Series{
		mk(1, 3320, "2003:1000:0:100::/64", "2003:1000:0:7800::/64"),
		mk(2, 3320, "2003:2000:0:a100::/64", "2003:2000:0:4200::/64"),
		mk(3, 8422, "2001:4dd0:5::/64", "2001:4dd0:91::/64"),
		mk(4, 8422, "2001:4dd0:77::/64"), // no change: excluded
	}
	pas := Analyze(series, DefaultExtractConfig())
	perAS, pooled := SubscriberLengths(pas)
	if got := perAS[3320]; got == nil || got.N != 2 || got.Counts[56] != 2 {
		t.Errorf("DTAG histogram: %+v", got)
	}
	if got := perAS[8422]; got == nil || got.Counts[48] != 1 {
		t.Errorf("Netcologne histogram: %+v", got)
	}
	if pooled.N != 3 {
		t.Errorf("pooled N = %d", pooled.N)
	}
}
