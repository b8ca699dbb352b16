package core

import (
	"net/netip"

	"dynamips/internal/netutil"
	"dynamips/internal/stats"
)

// InferSubscriberLength applies the paper's RIPE Atlas subscriber-boundary
// technique (§5.3) to one probe: the number of bits immediately above the
// /64 boundary that were zero in every /64 the probe observed is
// subtracted from 64, yielding the prefix length likely delegated to the
// subscriber. The boolean is false when the probe observed fewer than two
// distinct /64s (no inference possible — a single /64 sharing zeros may be
// chance) or when no zero run exists.
func InferSubscriberLength(v6 []Assignment[netip.Prefix]) (length int, ok bool) {
	uniq := make(map[netip.Prefix]bool)
	var prefixes []netip.Prefix
	for _, a := range v6 {
		if !uniq[a.Value] {
			uniq[a.Value] = true
			prefixes = append(prefixes, a.Value)
		}
	}
	if len(prefixes) < 2 {
		return 0, false
	}
	zeros := netutil.ZeroBitsBefore64Of(prefixes)
	if zeros == 0 {
		return 64, true // no shared zero bits: the subscriber holds a /64
	}
	if zeros > 32 {
		zeros = 32 // shorter than /32 is implausible for a subscriber
	}
	return 64 - zeros, true
}

// SubscriberLengths computes the per-AS histogram of inferred subscriber
// prefix lengths over probes with at least one IPv6 change (Fig. 6), and
// the pooled histogram over all such probes (Fig. 9).
func SubscriberLengths(pas []ProbeAnalysis) (perAS map[uint32]*stats.IntHistogram, pooled *stats.IntHistogram) {
	perAS = make(map[uint32]*stats.IntHistogram)
	pooled = stats.NewIntHistogram(64)
	for _, pa := range pas {
		if Changes(pa.V6) == 0 {
			continue
		}
		l, ok := InferSubscriberLength(pa.V6)
		if !ok {
			continue
		}
		h := perAS[pa.Probe.ASN]
		if h == nil {
			h = stats.NewIntHistogram(64)
			perAS[pa.Probe.ASN] = h
		}
		h.Add(l)
		pooled.Add(l)
	}
	return perAS, pooled
}
