package core

import (
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/echo"
)

func a4(s string) netip.Addr { return netip.MustParseAddr(s) }

func spans(parts ...echo.Span) []echo.Span { return parts }

func sp4(start, end int64, addr string) echo.Span {
	return echo.Span{Start: start, End: end, Echo: a4(addr)}
}

func sp6(start, end int64, addr string) echo.Span {
	return echo.Span{Start: start, End: end, Echo: netip.MustParseAddr(addr)}
}

func TestV4AssignmentsContiguous(t *testing.T) {
	as := V4Assignments(spans(
		sp4(0, 23, "81.10.0.1"),
		sp4(24, 47, "81.10.0.2"),
		sp4(48, 100, "81.10.0.3"),
	), DefaultExtractConfig())
	if len(as) != 3 {
		t.Fatalf("got %d assignments", len(as))
	}
	// First: no observed left boundary; exact right.
	if as[0].LeftExact || !as[0].RightExact {
		t.Errorf("first boundaries: %+v", as[0])
	}
	// Middle: sandwiched, 24 hours.
	if !as[1].Sandwiched() || as[1].Duration() != 24 {
		t.Errorf("middle: %+v", as[1])
	}
	// Last: open right.
	if as[2].RightExact {
		t.Errorf("last boundaries: %+v", as[2])
	}
	if got := Changes(as); got != 2 {
		t.Errorf("Changes = %d", got)
	}
	if d := SandwichedDurations(as); len(d) != 1 || d[0] != 24 {
		t.Errorf("durations = %v", d)
	}
}

func TestAssignmentsShortGapSameValue(t *testing.T) {
	// A 3-hour outage inside one assignment: still one assignment.
	as := V4Assignments(spans(
		sp4(0, 10, "81.10.0.1"),
		sp4(14, 20, "81.10.0.1"),
	), DefaultExtractConfig())
	if len(as) != 1 || as[0].Start != 0 || as[0].End != 20 {
		t.Fatalf("assignments = %+v", as)
	}
}

func TestAssignmentsLongGapSameValueSplits(t *testing.T) {
	as := V4Assignments(spans(
		sp4(0, 10, "81.10.0.1"),
		sp4(100, 120, "81.10.0.1"),
	), DefaultExtractConfig())
	if len(as) != 2 {
		t.Fatalf("assignments = %+v", as)
	}
	if as[0].RightExact || as[1].LeftExact {
		t.Error("split across long gap must not be exact")
	}
	if Changes(as) != 0 {
		t.Error("same-value split counted as change")
	}
}

func TestAssignmentsChangeAcrossGapInexact(t *testing.T) {
	as := V4Assignments(spans(
		sp4(0, 10, "81.10.0.1"),
		sp4(50, 80, "81.10.0.2"),
	), DefaultExtractConfig())
	if len(as) != 2 {
		t.Fatalf("assignments = %+v", as)
	}
	if as[0].RightExact || as[1].LeftExact {
		t.Error("change across gap must not be exact")
	}
	if Changes(as) != 1 {
		t.Error("change across gap must still count")
	}
	if len(SandwichedDurations(as)) != 0 {
		t.Error("no sandwiched durations expected")
	}
}

func TestV6AssignmentsTrackSlash64(t *testing.T) {
	// Host-part changes within the same /64 are not assignment changes.
	as := V6Assignments(spans(
		sp6(0, 10, "2003:1000:0:100::1:1"),
		sp6(11, 20, "2003:1000:0:100::2:2"),
		sp6(21, 30, "2003:1000:0:200::1:1"),
	), DefaultExtractConfig())
	if len(as) != 2 {
		t.Fatalf("assignments = %+v", as)
	}
	if as[0].Value != netip.MustParsePrefix("2003:1000:0:100::/64") {
		t.Errorf("value = %v", as[0].Value)
	}
	if as[0].End != 20 {
		t.Errorf("first /64 ends at %d, want 20", as[0].End)
	}
	if Changes(as) != 1 {
		t.Errorf("Changes = %d", Changes(as))
	}
}

func TestChangePairsExactFilter(t *testing.T) {
	as := V4Assignments(spans(
		sp4(0, 10, "81.10.0.1"),
		sp4(11, 20, "81.10.0.2"), // exact boundary
		sp4(50, 60, "81.10.0.3"), // inexact boundary
	), DefaultExtractConfig())
	var all, exact int
	ChangePairs(as, false, func(_, _ Assignment[netip.Addr]) { all++ })
	ChangePairs(as, true, func(_, _ Assignment[netip.Addr]) { exact++ })
	if all != 2 || exact != 1 {
		t.Errorf("all=%d exact=%d, want 2, 1", all, exact)
	}
}

func TestEmptySpans(t *testing.T) {
	if got := V4Assignments(nil, DefaultExtractConfig()); len(got) != 0 {
		t.Errorf("nil spans produced %v", got)
	}
	if Changes[netip.Addr](nil) != 0 {
		t.Error("Changes on empty")
	}
	if len(SandwichedDurations[netip.Addr](nil)) != 0 {
		t.Error("durations on empty")
	}
}

// TestExtractionInvariantsProperty drives extraction with random span
// layouts and checks the structural invariants every consumer relies on.
func TestExtractionInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	addrs := []string{"81.10.0.1", "81.10.0.2", "81.10.0.3"}
	for trial := 0; trial < 200; trial++ {
		var spans []echo.Span
		hour := int64(0)
		for i := 0; i < 20; i++ {
			hour += int64(rng.Intn(20)) // gaps of 0..19 hours
			length := int64(1 + rng.Intn(30))
			spans = append(spans, sp4(hour, hour+length-1, addrs[rng.Intn(len(addrs))]))
			hour += length
		}
		as := V4Assignments(spans, DefaultExtractConfig())
		for i, a := range as {
			if a.End < a.Start {
				t.Fatalf("trial %d: inverted assignment %+v", trial, a)
			}
			if i > 0 && a.Start <= as[i-1].End {
				t.Fatalf("trial %d: overlapping assignments", trial)
			}
			if a.Sandwiched() && a.Duration() < 1 {
				t.Fatalf("trial %d: non-positive duration", trial)
			}
		}
		if got := Changes(as); got > len(as)-1 && len(as) > 0 {
			t.Fatalf("trial %d: %d changes from %d assignments", trial, got, len(as))
		}
		// Total covered hours match the input.
		var inHours, outHours int64
		for _, sp := range spans {
			inHours += sp.End - sp.Start + 1
		}
		for _, a := range as {
			outHours += a.Duration()
		}
		if outHours < inHours {
			t.Fatalf("trial %d: extraction lost hours (%d < %d)", trial, outHours, inHours)
		}
	}
}
