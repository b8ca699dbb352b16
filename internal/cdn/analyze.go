package cdn

import (
	"net/netip"
	"sort"

	"dynamips/internal/netutil"
	"dynamips/internal/rir"
	"dynamips/internal/stats"
)

// Episode is one association episode: the period over which an IPv6 /64
// reported the same IPv4 /24 (§4.2). It ends when another /24 appears for
// the /64 or the /64 disappears.
type Episode struct {
	K64      uint64
	K24      uint32
	StartDay int
	EndDay   int // inclusive, last day observed
	Hits     int64
}

// Days returns the episode duration in days.
func (e Episode) Days() int { return e.EndDay - e.StartDay + 1 }

// EpisodeConfig tunes episode extraction.
type EpisodeConfig struct {
	// MaxGapDays is the longest absence after which a /64 is considered
	// gone (ending the episode at its last sighting). RUM clients are
	// not seen every day, so small gaps are bridged.
	MaxGapDays int
}

// DefaultEpisodeConfig bridges week-scale gaps.
func DefaultEpisodeConfig() EpisodeConfig { return EpisodeConfig{MaxGapDays: 7} }

// Episodes groups associations by /64 and splits them into episodes.
// The input is not modified.
func Episodes(assocs []Association, cfg EpisodeConfig) []Episode {
	if cfg.MaxGapDays <= 0 {
		cfg.MaxGapDays = 7
	}
	sorted := append([]Association(nil), assocs...)
	// Total order: a /64 can report two /24s on the same day (CGNAT
	// remaps, interleaved attachments), and sort.Slice is unstable, so
	// ordering by (K64, Day) alone would make the episode split — and the
	// hit attribution — depend on the input permutation.
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.K64 != b.K64 {
			return a.K64 < b.K64
		}
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if a.K24 != b.K24 {
			return a.K24 < b.K24
		}
		return a.Hits < b.Hits
	})
	var out []Episode
	for i := 0; i < len(sorted); {
		a := sorted[i]
		ep := Episode{K64: a.K64, K24: a.K24, StartDay: int(a.Day), EndDay: int(a.Day), Hits: int64(a.Hits)}
		j := i + 1
		for ; j < len(sorted); j++ {
			b := sorted[j]
			if b.K64 != a.K64 || b.K24 != ep.K24 || int(b.Day)-ep.EndDay > cfg.MaxGapDays {
				break
			}
			if int(b.Day) > ep.EndDay {
				ep.EndDay = int(b.Day)
			}
			ep.Hits += int64(b.Hits)
		}
		out = append(out, ep)
		i = j
	}
	return out
}

// MobileLabel classifies /24s as mobile by their IPv6 connectivity degree,
// following the paper's observation that CGNAT multiplexing puts orders of
// magnitude more /64s behind a mobile /24 (§4.3). It returns the set of
// mobile /24 keys. threshold is the unique-/64 count above which a /24 is
// labeled mobile.
func MobileLabel(assocs []Association, threshold int) map[uint32]bool {
	uniq := make(map[uint32]map[uint64]struct{})
	for _, a := range assocs {
		m, ok := uniq[a.K24]
		if !ok {
			m = make(map[uint64]struct{})
			uniq[a.K24] = m
		}
		m[a.K64] = struct{}{}
	}
	out := make(map[uint32]bool, len(uniq))
	for k24, m := range uniq {
		out[k24] = len(m) > threshold
	}
	return out
}

// DurationGroups splits episode durations into the paper's populations:
// per-operator (Fig. 2), global fixed/mobile (§4.2), and per-registry
// fixed/mobile (Fig. 3).
type DurationGroups struct {
	ByOperator map[uint32]*stats.ECDF // ASN -> durations (days)
	Fixed      *stats.ECDF
	Mobile     *stats.ECDF
	ByRegistry map[rir.Registry]*regPair
}

type regPair struct {
	Fixed  *stats.ECDF
	Mobile *stats.ECDF
}

// RegistryBox returns the fixed and mobile box stats for a registry.
func (g *DurationGroups) RegistryBox(r rir.Registry) (fixed, mobile stats.BoxStats) {
	p := g.ByRegistry[r]
	if p == nil {
		return stats.BoxStats{}, stats.BoxStats{}
	}
	return p.Fixed.Box(), p.Mobile.Box()
}

// GroupDurations computes DurationGroups from episodes, using the dataset's
// BGP table for operator attribution, its RIR table for registry grouping,
// and the mobile labeling for the fixed/mobile split.
func GroupDurations(ds *Dataset, eps []Episode, mobile map[uint32]bool) *DurationGroups {
	g := &DurationGroups{
		ByOperator: make(map[uint32]*stats.ECDF),
		Fixed:      &stats.ECDF{},
		Mobile:     &stats.ECDF{},
		ByRegistry: make(map[rir.Registry]*regPair),
	}
	for _, ep := range eps {
		d := float64(ep.Days())
		p64 := netutil.AddrFrom128(ep.K64, 0)
		asn, _, ok := ds.BGP.Origin(p64)
		if ok {
			e := g.ByOperator[asn]
			if e == nil {
				e = &stats.ECDF{}
				g.ByOperator[asn] = e
			}
			e.Add(d)
		}
		isMobile := mobile[ep.K24]
		if isMobile {
			g.Mobile.Add(d)
		} else {
			g.Fixed.Add(d)
		}
		reg := ds.RIR.Of(p64)
		if reg == rir.Unknown {
			continue
		}
		p := g.ByRegistry[reg]
		if p == nil {
			p = &regPair{Fixed: &stats.ECDF{}, Mobile: &stats.ECDF{}}
			g.ByRegistry[reg] = p
		}
		if isMobile {
			p.Mobile.Add(d)
		} else {
			p.Fixed.Add(d)
		}
	}
	return g
}

// DegreeDistributions computes Fig. 4: the distribution of unique (and
// hit-weighted) /64s per /24, split mobile vs fixed. Weighted counts each
// /64 by its total hits on the /24.
type DegreeDistributions struct {
	MobileUnique   *stats.LogHistogram
	MobileWeighted *stats.LogHistogram
	FixedUnique    *stats.LogHistogram
	FixedWeighted  *stats.LogHistogram
	// Connectivity1Frac is the share of unique /64s associated with
	// exactly one /24 (the paper: 87% in mobile networks).
	Connectivity1Frac map[bool]float64 // keyed by mobile
}

// Degrees computes the Fig. 4 distributions.
func Degrees(assocs []Association, mobile map[uint32]bool) *DegreeDistributions {
	type deg struct {
		uniq map[uint64]struct{}
		hits float64
	}
	per24 := make(map[uint32]*deg)
	conn := make(map[uint64]map[uint32]struct{}) // /64 -> /24 set
	for _, a := range assocs {
		d, ok := per24[a.K24]
		if !ok {
			d = &deg{uniq: make(map[uint64]struct{})}
			per24[a.K24] = d
		}
		d.uniq[a.K64] = struct{}{}
		d.hits += float64(a.Hits)
		c, ok := conn[a.K64]
		if !ok {
			c = make(map[uint32]struct{})
			conn[a.K64] = c
		}
		c[a.K24] = struct{}{}
	}
	dd := &DegreeDistributions{
		MobileUnique:      stats.NewLogHistogram(4),
		MobileWeighted:    stats.NewLogHistogram(4),
		FixedUnique:       stats.NewLogHistogram(4),
		FixedWeighted:     stats.NewLogHistogram(4),
		Connectivity1Frac: make(map[bool]float64),
	}
	for k24, d := range per24 {
		n := float64(len(d.uniq))
		if mobile[k24] {
			dd.MobileUnique.Add(n, 1)
			dd.MobileWeighted.Add(n, d.hits)
		} else {
			dd.FixedUnique.Add(n, 1)
			dd.FixedWeighted.Add(n, d.hits)
		}
	}
	var m1, mAll, f1, fAll float64
	for k64, c := range conn {
		isMobile := false
		for k24 := range c {
			if mobile[k24] {
				isMobile = true
				break
			}
		}
		_ = k64
		if isMobile {
			mAll++
			if len(c) == 1 {
				m1++
			}
		} else {
			fAll++
			if len(c) == 1 {
				f1++
			}
		}
	}
	if mAll > 0 {
		dd.Connectivity1Frac[true] = m1 / mAll
	}
	if fAll > 0 {
		dd.Connectivity1Frac[false] = f1 / fAll
	}
	return dd
}

// TrailingZeroBuckets classifies a set of observed /64 prefixes by their
// nibble-aligned trailing-zero run, the paper's CDN technique (§5.3,
// Fig. 7): the returned map counts prefixes whose longest zero run ends at
// the /60, /56, /52, and /48 boundaries; Total counts all prefixes and
// Inferable those with any nibble-aligned run.
type TrailingZeroBuckets struct {
	Counts    map[int]int // inferred delegated length -> count
	Total     int
	Inferable int
}

// InferableFrac is the share of prefixes whose delegation length the
// technique recovers (the percentages in Fig. 7's panel titles).
func (b *TrailingZeroBuckets) InferableFrac() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Inferable) / float64(b.Total)
}

// Frac returns the fraction of all prefixes classified at the length.
func (b *TrailingZeroBuckets) Frac(length int) float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Counts[length]) / float64(b.Total)
}

// ClassifyTrailingZeros buckets /64 prefixes by inferred delegation length.
func ClassifyTrailingZeros(prefixes []netip.Prefix) *TrailingZeroBuckets {
	b := &TrailingZeroBuckets{Counts: make(map[int]int)}
	for _, p := range prefixes {
		b.Total++
		if l, ok := netutil.InferredDelegation(p); ok {
			b.Counts[l]++
			b.Inferable++
		}
	}
	return b
}

// TrailingZerosByRegistry computes Fig. 7: unique fixed /64s classified by
// nibble-aligned trailing-zero run, per registry. Mobile /24s' prefixes
// are excluded, matching the paper's fixed-only analysis.
func TrailingZerosByRegistry(ds *Dataset, mobile map[uint32]bool) map[rir.Registry]*TrailingZeroBuckets {
	seen := make(map[uint64]bool)
	perReg := make(map[rir.Registry][]netip.Prefix)
	for _, a := range ds.Assocs {
		if mobile[a.K24] || seen[a.K64] {
			continue
		}
		seen[a.K64] = true
		p64 := a.P64()
		reg := ds.RIR.Of(p64.Addr())
		if reg == rir.Unknown {
			continue
		}
		perReg[reg] = append(perReg[reg], p64)
	}
	out := make(map[rir.Registry]*TrailingZeroBuckets, len(perReg))
	for reg, prefixes := range perReg {
		out[reg] = ClassifyTrailingZeros(prefixes)
	}
	return out
}

// MobileTrailingZeroFrac returns the share of unique mobile /64s with any
// nibble-aligned trailing zeros — the paper finds "no evidence of
// consistent trailing zeroes" for mobile (§5.3).
func MobileTrailingZeroFrac(ds *Dataset, mobile map[uint32]bool) float64 {
	seen := make(map[uint64]bool)
	var tot, withZeros int
	for _, a := range ds.Assocs {
		if !mobile[a.K24] || seen[a.K64] {
			continue
		}
		seen[a.K64] = true
		tot++
		if _, ok := netutil.InferredDelegation(a.P64()); ok {
			withZeros++
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(withZeros) / float64(tot)
}
