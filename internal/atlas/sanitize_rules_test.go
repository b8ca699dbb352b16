package atlas

import (
	"net/netip"
	"testing"

	"dynamips/internal/bgp"
	"dynamips/internal/echo"
	"dynamips/internal/obs"
)

// sanitizeRulesTable announces the two-AS topology every rule fixture
// lives in: the home AS 3320 and a foreign AS 64501.
func sanitizeRulesTable() *bgp.Table {
	table := &bgp.Table{}
	table.Announce(netip.MustParsePrefix("81.10.0.0/16"), 3320)
	table.Announce(netip.MustParsePrefix("203.0.113.0/24"), 64501)
	return table
}

// longSpan is a clean year-long home-AS observation.
func longSpan() []echo.Span {
	return []echo.Span{{Start: 0, End: 8759, Echo: netip.MustParseAddr("81.10.0.1")}}
}

// TestSanitizeRules enumerates every drop rule with one minimal fixture
// each, asserting both the drop decision (SanitizeResult.Drops) and the
// per-rule observability counter the pipeline dashboards read.
func TestSanitizeRules(t *testing.T) {
	home := netip.MustParseAddr("81.10.0.1")
	homeB := netip.MustParseAddr("81.10.0.9")
	foreign := netip.MustParseAddr("203.0.113.7")

	cases := []struct {
		name   string
		series echo.Series
		reason string // expected drop reason ("" = survives)
		clean  int    // expected surviving series
		splits int    // expected virtual splits
	}{
		{
			name:   "clean probe survives",
			series: echo.Series{Probe: echo.Probe{ID: 1, ASN: 3320}, V4: longSpan()},
			clean:  1,
		},
		{
			name:   "short-duration",
			series: echo.Series{Probe: echo.Probe{ID: 2, ASN: 3320}, V4: []echo.Span{{Start: 0, End: 99, Echo: home}}},
			reason: DropShort,
		},
		{
			name: "bad-tag",
			series: echo.Series{
				Probe: echo.Probe{ID: 3, ASN: 3320, Tags: []string{"system-anchor"}},
				V4:    longSpan(),
			},
			reason: DropBadTag,
		},
		{
			name: "atypical-nat public v4 src",
			series: echo.Series{
				Probe: echo.Probe{ID: 4, ASN: 3320},
				V4:    []echo.Span{{Start: 0, End: 8759, Echo: home, Src: netip.MustParseAddr("81.10.0.2")}},
			},
			reason: DropAtypicalNAT,
		},
		{
			name: "atypical-nat v6 src differs from echo",
			series: echo.Series{
				Probe: echo.Probe{ID: 5, ASN: 3320},
				V4:    longSpan(),
				V6: []echo.Span{{
					Start: 0, End: 8759,
					Echo: netip.MustParseAddr("2001:db8::1"),
					Src:  netip.MustParseAddr("2001:db8::2"),
				}},
			},
			reason: DropAtypicalNAT,
		},
		{
			name: "multihomed AS alternation",
			series: echo.Series{
				Probe: echo.Probe{ID: 6, ASN: 3320},
				V4: []echo.Span{
					{Start: 0, End: 3000, Echo: home},
					{Start: 3001, End: 6000, Echo: foreign},
					{Start: 6001, End: 9000, Echo: homeB},
				},
			},
			reason: DropMultihomed,
		},
		{
			name: "multihomed address flip-flop",
			series: echo.Series{
				Probe: echo.Probe{ID: 7, ASN: 3320},
				V4: []echo.Span{
					{Start: 0, End: 999, Echo: home},
					{Start: 1000, End: 1999, Echo: homeB},
					{Start: 2000, End: 2999, Echo: home},
					{Start: 3000, End: 3999, Echo: homeB},
					{Start: 4000, End: 4999, Echo: home},
					{Start: 5000, End: 5999, Echo: homeB},
					{Start: 6000, End: 6999, Echo: home},
					{Start: 7000, End: 7999, Echo: homeB},
				},
			},
			reason: DropMultihomed,
		},
		{
			name: "AS switch splits into virtual probes",
			series: echo.Series{
				Probe: echo.Probe{ID: 8, ASN: 3320},
				V4: []echo.Span{
					{Start: 0, End: 4999, Echo: home},
					{Start: 5000, End: 9999, Echo: foreign},
				},
			},
			clean:  2,
			splits: 1,
		},
		{
			name: "AS switch with short remainder drops the short part",
			series: echo.Series{
				Probe: echo.Probe{ID: 9, ASN: 3320},
				V4: []echo.Span{
					{Start: 0, End: 4999, Echo: home},
					{Start: 5000, End: 5099, Echo: foreign},
				},
			},
			reason: DropShort,
			clean:  1,
			splits: 1,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.NewObserver()
			cfg := DefaultSanitizeConfig()
			cfg.Obs = o
			res := Sanitize([]echo.Series{tc.series}, sanitizeRulesTable(), cfg)

			wantDrops := 0
			if tc.reason != "" {
				wantDrops = 1
			}
			if got := res.Drops[tc.reason]; tc.reason != "" && got != wantDrops {
				t.Errorf("Drops[%s] = %d, want %d (all drops: %v)", tc.reason, got, wantDrops, res.Drops)
			}
			total := 0
			for _, n := range res.Drops {
				total += n
			}
			if total != wantDrops {
				t.Errorf("total drops = %d, want %d (%v)", total, wantDrops, res.Drops)
			}
			if len(res.Clean) != tc.clean {
				t.Errorf("clean = %d, want %d", len(res.Clean), tc.clean)
			}
			if res.VirtualSplits != tc.splits {
				t.Errorf("splits = %d, want %d", res.VirtualSplits, tc.splits)
			}

			// The per-rule counter must agree with the drop decision.
			if tc.reason != "" {
				if got := o.Counter("sanitize_drops", obs.L("reason", tc.reason)).Value(); got != int64(wantDrops) {
					t.Errorf("counter sanitize_drops{reason=%s} = %d, want %d", tc.reason, got, wantDrops)
				}
			}
			for _, reason := range []string{DropShort, DropBadTag, DropAtypicalNAT, DropMultihomed} {
				if reason == tc.reason {
					continue
				}
				if got := o.Counter("sanitize_drops", obs.L("reason", reason)).Value(); got != 0 {
					t.Errorf("counter sanitize_drops{reason=%s} = %d, want 0", reason, got)
				}
			}
			if got := o.Counter("sanitize_virtual_splits").Value(); got != int64(tc.splits) {
				t.Errorf("counter sanitize_virtual_splits = %d, want %d", got, tc.splits)
			}
			if got := o.Counter("sanitize_series_in").Value(); got != 1 {
				t.Errorf("counter sanitize_series_in = %d, want 1", got)
			}
			if got := o.Counter("sanitize_series_clean").Value(); got != int64(tc.clean) {
				t.Errorf("counter sanitize_series_clean = %d, want %d", got, tc.clean)
			}
		})
	}
}
