package cdn

import (
	"fmt"
	"io"
	"net/netip"
	"sort"

	"dynamips/internal/bgp"
	"dynamips/internal/netutil"
	"dynamips/internal/obs"
	"dynamips/internal/sketch"
	"dynamips/internal/stats"
)

// Report is the analyze-cdn summary: every figure the CLI report prints,
// reduced to order-independent aggregates (multiset box stats, histogram
// peaks, bucket counts). Both the in-memory oracle (BuildReport) and the
// sharded streaming pipeline produce one, and Render serializes it — so
// proving the two paths byte-identical reduces to proving their Reports
// equal.
type Report struct {
	Assocs   int
	Episodes int
	// Fixed and Mobile are the episode-duration five-number summaries;
	// a zero N means the population was empty and its line is omitted.
	Fixed  stats.BoxStats
	Mobile stats.BoxStats
	// MobilePeak and FixedPeak are the modes of the unique-degree
	// histograms (Fig. 4); NaN when the population is empty.
	MobilePeak float64
	FixedPeak  float64
	// PerOperator reports whether a pfx2as table attributed episodes to
	// operators (the section header prints even when no episode matched).
	PerOperator bool
	PerOp       []OperatorDurations
	// Zeros buckets unique fixed /64s by inferred delegation length.
	Zeros *TrailingZeroBuckets
	// Sketches holds the streaming pipeline's merged online summaries
	// (durations, degrees, heavy hitters, cardinalities). The in-memory
	// oracle leaves it nil — exact answers need no sketch — and Render
	// ignores it, so the byte-identity contract between the two paths is
	// untouched.
	Sketches *sketch.Set
}

// OperatorDurations is one operator's episode-duration summary, keyed and
// ordered by ASN.
type OperatorDurations struct {
	ASN  uint32
	Name string
	Box  stats.BoxStats
}

// Render writes the report in the CLI's text format.
func (r *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "associations: %d, episodes: %d\n", r.Assocs, r.Episodes)
	if r.Fixed.N > 0 {
		fmt.Fprintf(w, "fixed  durations: %s\n", r.Fixed)
	}
	if r.Mobile.N > 0 {
		fmt.Fprintf(w, "mobile durations: %s\n", r.Mobile)
	}
	fmt.Fprintf(w, "degrees: mobile peak %.0f, fixed peak %.0f\n", r.MobilePeak, r.FixedPeak)
	if r.PerOperator {
		fmt.Fprintln(w, "per-operator association durations:")
		for _, op := range r.PerOp {
			fmt.Fprintf(w, "  %-12s %s\n", op.Name, op.Box)
		}
	}
	fmt.Fprintf(w, "trailing zeros (fixed /64s): %.1f%% inferable;", 100*r.Zeros.InferableFrac())
	for _, l := range []int{48, 52, 56, 60} {
		fmt.Fprintf(w, " /%d=%.2f", l, r.Zeros.Frac(l))
	}
	fmt.Fprintln(w)
	return nil
}

// BuildReport runs the in-memory analysis over a materialized association
// list — the oracle the streaming pipeline is validated against. table
// may be nil (skips per-operator attribution). The observer sees the
// "analyze-cdn" span, one virtual tick per association, and the
// association/episode counters.
func BuildReport(assocs []Association, table *bgp.Table, threshold int, o *obs.Observer) *Report {
	span := o.StartSpan("analyze-cdn")
	defer func() {
		o.Advance(int64(len(assocs)))
		span.End()
	}()
	o.Counter("cdn_assocs_filtered").Add(int64(len(assocs)))
	mobile := MobileLabel(assocs, threshold)
	eps := Episodes(assocs, DefaultEpisodeConfig())
	o.Counter("cdn_episodes").Add(int64(len(eps)))
	r := &Report{Assocs: len(assocs), Episodes: len(eps)}
	var fixedD, mobileD []float64
	for _, ep := range eps {
		if mobile[ep.K24] {
			mobileD = append(mobileD, float64(ep.Days()))
		} else {
			fixedD = append(fixedD, float64(ep.Days()))
		}
	}
	if len(fixedD) > 0 {
		r.Fixed = stats.NewECDF(fixedD).Box()
	}
	if len(mobileD) > 0 {
		r.Mobile = stats.NewECDF(mobileD).Box()
	}
	dd := Degrees(assocs, mobile)
	r.MobilePeak = dd.MobileUnique.PeakX()
	r.FixedPeak = dd.FixedUnique.PeakX()

	if table != nil {
		r.PerOperator = true
		perOp := map[uint32][]float64{}
		for _, ep := range eps {
			if asn, _, ok := table.Origin(netutil.AddrFrom128(ep.K64, 0)); ok {
				perOp[asn] = append(perOp[asn], float64(ep.Days()))
			}
		}
		asns := make([]uint32, 0, len(perOp))
		for asn := range perOp {
			asns = append(asns, asn)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		for _, asn := range asns {
			r.PerOp = append(r.PerOp, OperatorDurations{
				ASN: asn, Name: table.Name(asn), Box: stats.NewECDF(perOp[asn]).Box(),
			})
		}
	}

	// Trailing zeros over unique fixed /64s: each /64 counts once if any
	// of its associations arrived on a non-mobile /24.
	seen := map[uint64]bool{}
	var prefixes []netip.Prefix
	for _, a := range assocs {
		if mobile[a.K24] || seen[a.K64] {
			continue
		}
		seen[a.K64] = true
		prefixes = append(prefixes, a.P64())
	}
	r.Zeros = ClassifyTrailingZeros(prefixes)
	return r
}
