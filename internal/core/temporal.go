package core

import (
	"net/netip"
	"sort"

	"dynamips/internal/atlas"
	"dynamips/internal/checkpoint"
	"dynamips/internal/parallel"
	"dynamips/internal/stats"
)

// DualStackMinHours is the paper's dual-stack probe criterion: at least a
// month of both IPv4 and IPv6 measurements (Table 1 fn. 3).
const DualStackMinHours = 720

// ProbeAnalysis is the per-probe digest every higher-level analysis
// consumes: the extracted assignment sequences plus derived classifiers.
type ProbeAnalysis struct {
	Probe     atlas.Probe
	V4        []Assignment[netip.Addr]
	V6        []Assignment[netip.Prefix]
	DualStack bool
}

// Analyze digests sanitized series into per-probe analyses. Series are
// independent, so they are digested concurrently under cfg.Workers; the
// result keeps the input order. Analyze never journals (and so never
// fails); checkpointed pipelines use AnalyzeErr.
func Analyze(series []atlas.Series, cfg ExtractConfig) []ProbeAnalysis {
	return parallel.Map(len(series), cfg.Workers, func(i int) ProbeAnalysis {
		return analyzeOne(&series[i], cfg)
	})
}

// AnalyzeErr is Analyze with crash-safe journaling: when cfg.Checkpoint is
// set, each digested series is recorded in index order under the "analyze"
// stage, and a resumed run decodes completed digests instead of
// recomputing them. With a nil Checkpoint it is exactly Analyze.
func AnalyzeErr(series []atlas.Series, cfg ExtractConfig) ([]ProbeAnalysis, error) {
	return checkpoint.Stage(cfg.Checkpoint, "analyze", len(series), cfg.Workers,
		func(i int) (ProbeAnalysis, error) {
			return analyzeOne(&series[i], cfg), nil
		},
		checkpoint.GobEncode[ProbeAnalysis], checkpoint.GobDecode[ProbeAnalysis])
}

func analyzeOne(s *atlas.Series, cfg ExtractConfig) ProbeAnalysis {
	return ProbeAnalysis{
		Probe:     s.Probe,
		V4:        V4Assignments(s.V4, cfg),
		V6:        V6Assignments(s.V6, cfg),
		DualStack: s.DualStack(DualStackMinHours),
	}
}

// ASDurations aggregates the paper's three duration populations for one AS
// (Fig. 1): IPv4 on non-dual-stack probes, IPv4 on dual-stack probes, and
// IPv6 /64 durations.
type ASDurations struct {
	ASN                 uint32
	V4NonDS, V4DS, V6Hr []float64
}

// TotalYears returns each population's total assignment time in years, the
// number Fig. 1 reports in parentheses.
func (d *ASDurations) TotalYears() (nds, ds, v6 float64) {
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / (24 * 365)
	}
	return sum(d.V4NonDS), sum(d.V4DS), sum(d.V6Hr)
}

// CollectDurations gathers sandwiched duration samples per AS.
func CollectDurations(pas []ProbeAnalysis) map[uint32]*ASDurations {
	m := make(map[uint32]*ASDurations)
	for _, pa := range pas {
		d := m[pa.Probe.ASN]
		if d == nil {
			d = &ASDurations{ASN: pa.Probe.ASN}
			m[pa.Probe.ASN] = d
		}
		v4 := SandwichedDurations(pa.V4)
		if pa.DualStack {
			d.V4DS = append(d.V4DS, v4...)
		} else {
			d.V4NonDS = append(d.V4NonDS, v4...)
		}
		d.V6Hr = append(d.V6Hr, SandwichedDurations(pa.V6)...)
	}
	return m
}

// DurationCurves returns the three cumulative total-time-fraction curves
// for an AS (the Fig. 1 panels).
func DurationCurves(d *ASDurations) (nds, ds, v6 []stats.Point) {
	return stats.CumulativeTotalTimeFraction(d.V4NonDS),
		stats.CumulativeTotalTimeFraction(d.V4DS),
		stats.CumulativeTotalTimeFraction(d.V6Hr)
}

// CandidatePeriods are the renumbering periods prior work and the paper
// report: 12 h, 24 h, 36 h, 48 h, 1 week, 2 weeks (§2.2, §3.2).
var CandidatePeriods = []float64{12, 24, 36, 48, 168, 336}

// PeriodicAS describes detected periodic renumbering in one AS and
// population.
type PeriodicAS struct {
	ASN        uint32
	Population string // "v4-nds", "v4-ds", "v6"
	Modes      []stats.Mode
}

// DetectPeriodicRenumbering scans all ASes' duration populations for
// concentration at the candidate periods. minFraction is the share of
// total assignment time that must fall within ±tol of a candidate (the
// paper's "consistent periodic renumbering", found in 35 networks for
// non-dual-stack IPv4).
func DetectPeriodicRenumbering(ds map[uint32]*ASDurations, tol, minFraction float64) []PeriodicAS {
	var out []PeriodicAS
	add := func(asn uint32, pop string, durations []float64) {
		modes := stats.DetectPeriodicModes(durations, CandidatePeriods, tol, minFraction)
		if len(modes) > 0 {
			out = append(out, PeriodicAS{ASN: asn, Population: pop, Modes: modes})
		}
	}
	asns := make([]uint32, 0, len(ds))
	for asn := range ds {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		d := ds[asn]
		add(asn, "v4-nds", d.V4NonDS)
		add(asn, "v4-ds", d.V4DS)
		add(asn, "v6", d.V6Hr)
	}
	return out
}

// Simultaneity measures how often a dual-stack probe's IPv6 change
// co-occurs (same hour) with an IPv4 change (§3.2: DTAG 90.6%, Comcast
// mostly not). Only exact (contiguously observed) changes are compared.
type Simultaneity struct {
	ASN       uint32
	V6Changes int
	CoOccur   int
}

// Fraction returns the co-occurrence share (0 when no changes).
func (s Simultaneity) Fraction() float64 {
	if s.V6Changes == 0 {
		return 0
	}
	return float64(s.CoOccur) / float64(s.V6Changes)
}

// MeasureSimultaneity computes per-AS co-occurrence over dual-stack probes.
func MeasureSimultaneity(pas []ProbeAnalysis) map[uint32]*Simultaneity {
	out := make(map[uint32]*Simultaneity)
	for _, pa := range pas {
		if !pa.DualStack {
			continue
		}
		s := out[pa.Probe.ASN]
		if s == nil {
			s = &Simultaneity{ASN: pa.Probe.ASN}
			out[pa.Probe.ASN] = s
		}
		v4ChangeHours := make(map[int64]bool)
		ChangePairs(pa.V4, true, func(prev, next Assignment[netip.Addr]) {
			v4ChangeHours[next.Start] = true
		})
		ChangePairs(pa.V6, true, func(prev, next Assignment[netip.Prefix]) {
			s.V6Changes++
			if v4ChangeHours[next.Start] {
				s.CoOccur++
			}
		})
	}
	return out
}
