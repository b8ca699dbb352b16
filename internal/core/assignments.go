// Package core implements the DynamIPs analyses: assignment-change
// detection and duration inference from IP-echo observations (§3),
// total-time-fraction duration curves (Fig. 1), periodic-renumbering
// detection, dual-stack simultaneity (§3.2), spatial analyses — CPL
// spectra (Fig. 5), unique-prefix distributions (Fig. 8), BGP-prefix
// change rates (Table 2) — and subscriber/pool boundary inference
// (Figs. 6, 7, 9; §5.2–5.3).
package core

import (
	"net/netip"

	"dynamips/internal/checkpoint"
	"dynamips/internal/echo"
	"dynamips/internal/netutil"
)

// Assignment is one maximal stretch of hours over which a probe reported a
// constant value (an IPv4 address, or an IPv6 /64 prefix).
type Assignment[V comparable] struct {
	Value V
	// Start and End are the first and last hour the value was observed
	// in this stretch (inclusive).
	Start, End int64
	// LeftExact/RightExact report whether the assignment's boundaries
	// were observed exactly: the previous/next hourly measurement exists
	// and carried a different value. Only assignments exact on both
	// sides yield duration samples (§3.1: "sandwiched between changes").
	LeftExact, RightExact bool
}

// Duration returns the assignment's observed duration in hours.
func (a Assignment[V]) Duration() int64 { return a.End - a.Start + 1 }

// Sandwiched reports whether the assignment yields an exact duration.
func (a Assignment[V]) Sandwiched() bool { return a.LeftExact && a.RightExact }

// ExtractConfig tunes assignment extraction.
type ExtractConfig struct {
	// MaxGapHours is the longest observation gap across which a
	// same-valued assignment is considered continuous (probe downtime
	// shorter than this does not break an assignment). Gaps longer than
	// this split the assignment, and neither fragment's outer boundary
	// is exact.
	MaxGapHours int64
	// Workers bounds Analyze's per-series fan-out; <= 0 uses one worker
	// per CPU. Series are digested independently and results keep input
	// order, so the worker count never changes the output.
	Workers int
	// Checkpoint, when non-nil, makes AnalyzeErr journal each digested
	// series under the "analyze" stage so an interrupted run resumes
	// without re-digesting completed series. Analyze ignores it; the
	// caller owns manifest keying.
	Checkpoint *checkpoint.Run
}

// DefaultExtractConfig allows assignments to ride out short probe
// downtime.
func DefaultExtractConfig() ExtractConfig { return ExtractConfig{MaxGapHours: 6} }

// extract folds spans into assignments under cfg. Spans must be sorted by
// Start and non-overlapping, as atlas produces them.
func extract[V comparable](spans []echo.Span, value func(echo.Span) V, cfg ExtractConfig) []Assignment[V] {
	var out []Assignment[V]
	for _, sp := range spans {
		v := value(sp)
		n := len(out)
		if n > 0 {
			cur := &out[n-1]
			gap := sp.Start - cur.End - 1
			switch {
			case v == cur.Value && gap <= cfg.MaxGapHours:
				cur.End = sp.End
				continue
			case v == cur.Value:
				// Same value across a long gap: split; boundaries
				// inside the gap are unobservable.
				cur.RightExact = false
				out = append(out, Assignment[V]{Value: v, Start: sp.Start, End: sp.End})
				continue
			default:
				exact := gap == 0
				cur.RightExact = exact
				out = append(out, Assignment[V]{Value: v, Start: sp.Start, End: sp.End, LeftExact: exact})
				continue
			}
		}
		out = append(out, Assignment[V]{Value: v, Start: sp.Start, End: sp.End})
	}
	return out
}

// V4Assignments extracts IPv4 address assignments from a probe's spans.
func V4Assignments(spans []echo.Span, cfg ExtractConfig) []Assignment[netip.Addr] {
	return extract(spans, func(sp echo.Span) netip.Addr { return sp.Echo }, cfg)
}

// V6Assignments extracts IPv6 /64-prefix assignments from a probe's spans.
// The /64 is the paper's IPv6 tracking granularity (§2.1).
func V6Assignments(spans []echo.Span, cfg ExtractConfig) []Assignment[netip.Prefix] {
	return extract(spans, func(sp echo.Span) netip.Prefix { return netutil.Prefix64(sp.Echo) }, cfg)
}

// Changes counts assignment changes: consecutive assignments whose values
// differ. Same-value splits (probe downtime) do not count.
func Changes[V comparable](as []Assignment[V]) int {
	n := 0
	for i := 1; i < len(as); i++ {
		if as[i].Value != as[i-1].Value {
			n++
		}
	}
	return n
}

// SandwichedDurations returns the exact duration samples (hours) from an
// assignment sequence.
func SandwichedDurations[V comparable](as []Assignment[V]) []float64 {
	var out []float64
	for _, a := range as {
		if a.Sandwiched() {
			out = append(out, float64(a.Duration()))
		}
	}
	return out
}

// ChangePairs visits consecutive different-valued assignment pairs (the
// spatial analyses' unit: where did the address move). exact restricts to
// pairs whose boundary was observed contiguously.
func ChangePairs[V comparable](as []Assignment[V], exact bool, fn func(prev, next Assignment[V])) {
	for i := 1; i < len(as); i++ {
		if as[i].Value == as[i-1].Value {
			continue
		}
		if exact && !as[i-1].RightExact {
			continue
		}
		fn(as[i-1], as[i])
	}
}
