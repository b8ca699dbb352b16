package atlas

import (
	"sort"

	"dynamips/internal/bgp"
	"dynamips/internal/echo"
	"dynamips/internal/obs"
)

// Drop reasons reported by Sanitize, matching Appendix A.1's filters.
const (
	DropShort       = "short-duration"
	DropBadTag      = "bad-tag"
	DropAtypicalNAT = "atypical-nat"
	DropMultihomed  = "multihomed"
)

// DefaultBadTags are the probe tags whose presence disqualifies a probe
// from the residential analysis (Appendix A.1).
var DefaultBadTags = []string{"multihomed", "datacentre", "core", "system-anchor"}

// SanitizeConfig tunes the pipeline.
type SanitizeConfig struct {
	// MinObservedHours is the minimum observation coverage; the paper
	// keeps probes that yielded measurements for at least a month.
	MinObservedHours int64
	// BadTags lists disqualifying probe tags (DefaultBadTags if nil).
	BadTags []string
	// Obs receives per-rule drop counters and split/series gauges. Nil
	// disables instrumentation.
	Obs *obs.Observer
}

// DefaultSanitizeConfig mirrors the paper: one month minimum coverage.
func DefaultSanitizeConfig() SanitizeConfig {
	return SanitizeConfig{MinObservedHours: 720}
}

// SanitizeResult is the pipeline outcome.
type SanitizeResult struct {
	// Clean holds the surviving series, each confined to a single AS,
	// sorted by probe ID. Virtual probes from AS-switch splitting carry
	// derived IDs (originalID*10 + part).
	Clean []echo.Series
	// Drops counts filtered probes by reason.
	Drops map[string]int
	// VirtualSplits counts probes split into per-AS virtual probes.
	VirtualSplits int
}

// Sanitize applies the Appendix A.1 pipeline: strip test-address entries,
// drop short-lived probes, drop disqualifying tags, drop atypical NAT
// deployments, drop multihomed probes (alternating ASes or addresses), and
// split probes that permanently switched AS into virtual probes.
func Sanitize(in []echo.Series, table *bgp.Table, cfg SanitizeConfig) SanitizeResult {
	if cfg.MinObservedHours <= 0 {
		cfg.MinObservedHours = 720
	}
	badTags := cfg.BadTags
	if badTags == nil {
		badTags = DefaultBadTags
	}
	res := SanitizeResult{Drops: make(map[string]int)}

	for _, ser := range in {
		s := ser
		s.V4 = stripTestAddr(s.V4)
		s.V6 = stripTestAddr(s.V6)

		if hasBadTag(s.Probe.Tags, badTags) {
			res.Drops[DropBadTag]++
			continue
		}
		if s.ObservedHours() < cfg.MinObservedHours {
			res.Drops[DropShort]++
			continue
		}
		if atypicalNAT(&s) {
			res.Drops[DropAtypicalNAT]++
			continue
		}
		seq4 := asnSequence(s.V4, table)
		seq6 := asnSequence(s.V6, table)
		if alternates(seq4) || alternates(seq6) || addrAlternates(s.V4) {
			res.Drops[DropMultihomed]++
			continue
		}
		switch {
		case len(seq4) > 1 || len(seq6) > 1:
			// Single A→B transition in at least one family: the owner
			// changed ISP. Split into one virtual probe per AS.
			parts := splitByASN(&s, table)
			res.VirtualSplits++
			for _, p := range parts {
				if p.ObservedHours() >= cfg.MinObservedHours {
					res.Clean = append(res.Clean, p)
				} else {
					res.Drops[DropShort]++
				}
			}
		default:
			if len(seq4) == 1 {
				s.Probe.ASN = seq4[0]
			} else if len(seq6) == 1 {
				s.Probe.ASN = seq6[0]
			}
			res.Clean = append(res.Clean, s)
		}
	}
	sort.Slice(res.Clean, func(i, j int) bool { return res.Clean[i].Probe.ID < res.Clean[j].Probe.ID })
	if o := cfg.Obs; o != nil {
		for reason, n := range res.Drops {
			o.Counter("sanitize_drops", obs.L("reason", reason)).Add(int64(n))
		}
		o.Counter("sanitize_virtual_splits").Add(int64(res.VirtualSplits))
		o.Counter("sanitize_series_in").Add(int64(len(in)))
		o.Counter("sanitize_series_clean").Add(int64(len(res.Clean)))
	}
	return res
}

func stripTestAddr(spans []echo.Span) []echo.Span {
	out := spans[:0:0]
	for _, sp := range spans {
		if sp.Echo != TestAddr {
			out = append(out, sp)
		}
	}
	return out
}

func hasBadTag(tags, bad []string) bool {
	for _, t := range tags {
		for _, b := range bad {
			if t == b {
				return true
			}
		}
	}
	return false
}

// atypicalNAT reports probes deployed outside the expected residential
// topology: IPv4 probes whose src_addr is already public (no home NAT), or
// IPv6 probes whose src_addr differs from the echoed address.
func atypicalNAT(s *echo.Series) bool {
	for _, sp := range s.V4 {
		if sp.Src.IsValid() && !sp.Src.IsPrivate() {
			return true
		}
	}
	for _, sp := range s.V6 {
		if sp.Src.IsValid() && sp.Src != sp.Echo {
			return true
		}
	}
	return false
}

// asnSequence maps spans to origin ASNs and collapses consecutive
// duplicates. Unrouted addresses carry no attribution signal and are
// skipped: a transiently unrouted echo between two stretches of the home
// AS must not read as an A,0,A alternation (which would drop the probe as
// multihomed) or as an AS transition (which would split it).
func asnSequence(spans []echo.Span, table *bgp.Table) []uint32 {
	var seq []uint32
	for _, sp := range spans {
		asn, _, ok := table.Origin(sp.Echo)
		if !ok {
			continue
		}
		if n := len(seq); n == 0 || seq[n-1] != asn {
			seq = append(seq, asn)
		}
	}
	return seq
}

// alternates reports whether an ASN recurs non-consecutively (A,B,A …),
// the signature of a multihomed deployment.
func alternates(seq []uint32) bool {
	seen := make(map[uint32]bool, len(seq))
	for _, a := range seq {
		if seen[a] {
			return true
		}
		seen[a] = true
	}
	return false
}

// addrAlternates reports sustained flip-flopping between addresses
// (x, y, x consecutive triples), the signature of a multihomed deployment
// whose both links sit in the same AS. Dynamic pools do occasionally
// re-issue a subscriber's old address, so a handful of returns is normal;
// multihoming produces them for a large share of the history.
func addrAlternates(spans []echo.Span) bool {
	if len(spans) < 8 {
		return false
	}
	returns := 0
	for i := 2; i < len(spans); i++ {
		if spans[i].Echo == spans[i-2].Echo && spans[i].Echo != spans[i-1].Echo {
			returns++
		}
	}
	return returns >= 4 && returns*4 >= len(spans)
}

// splitByASN splits a series at AS transitions, producing one virtual probe
// per AS (Appendix A.1: 2,517 probes became per-AS virtual probes).
// Unrouted spans are discarded rather than collected into a fictitious
// AS-0 virtual probe.
func splitByASN(s *echo.Series, table *bgp.Table) []echo.Series {
	type bucket struct {
		v4, v6 []echo.Span
	}
	buckets := map[uint32]*bucket{}
	var order []uint32
	add := func(sp echo.Span, v6 bool) {
		asn, _, ok := table.Origin(sp.Echo)
		if !ok {
			return
		}
		b, ok := buckets[asn]
		if !ok {
			b = &bucket{}
			buckets[asn] = b
			order = append(order, asn)
		}
		if v6 {
			b.v6 = append(b.v6, sp)
		} else {
			b.v4 = append(b.v4, sp)
		}
	}
	for _, sp := range s.V4 {
		add(sp, false)
	}
	for _, sp := range s.V6 {
		add(sp, true)
	}
	out := make([]echo.Series, 0, len(order))
	for i, asn := range order {
		p := s.Probe
		p.ID = s.Probe.ID*10 + i + 1
		p.ASN = asn
		out = append(out, echo.Series{Probe: p, V4: buckets[asn].v4, V6: buckets[asn].v6})
	}
	return out
}
