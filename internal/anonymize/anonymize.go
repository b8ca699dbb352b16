// Package anonymize implements the paper's privacy application (§6):
// aggregating IPv6 addresses for data sharing without identifying
// individual subscribers. Fixed-length truncation (e.g. Google Analytics'
// /48 masking, [21] in the paper) is fallacious — Netcologne delegates
// whole /48s to single households — so policies here are derived
// per-network from the inferred subscriber and pool boundaries.
package anonymize

import (
	"fmt"
	"net/netip"

	"dynamips/internal/core"
	"dynamips/internal/netutil"
)

// Policy is a per-AS anonymization rule: truncate addresses in the AS to
// TruncateLen bits.
type Policy struct {
	ASN uint32
	// TruncateLen is the released prefix length.
	TruncateLen int
	// SubscriberLen is the inferred per-subscriber delegation the policy
	// must stay strictly above.
	SubscriberLen int
}

// Anonymize truncates an IPv6 address under the policy.
func (p Policy) Anonymize(a netip.Addr) (netip.Prefix, error) {
	if !a.Is6() || a.Unmap().Is4() {
		return netip.Prefix{}, fmt.Errorf("anonymize: %v is not IPv6", a)
	}
	return netutil.PrefixAt(a, p.TruncateLen), nil
}

// MarginBits is the policy's distance above the subscriber boundary.
func (p Policy) MarginBits() int { return p.SubscriberLen - p.TruncateLen }

// DerivePolicy builds a per-AS policy from analyzed probes: the released
// prefix sits marginBits above the inferred subscriber boundary, and no
// longer than the inferred dynamic pool when one is measurable (pools are
// where subscribers provably aggregate — §5.2).
func DerivePolicy(asn uint32, pas []core.ProbeAnalysis, marginBits int) (Policy, error) {
	if marginBits < 0 {
		return Policy{}, fmt.Errorf("anonymize: negative margin")
	}
	perAS, _ := core.SubscriberLengths(pas)
	h := perAS[asn]
	if h == nil || h.N == 0 {
		return Policy{}, fmt.Errorf("anonymize: no subscriber-boundary inference for AS%d", asn)
	}
	sub := h.ArgMax()
	p := Policy{ASN: asn, SubscriberLen: sub, TruncateLen: sub - marginBits}
	dists := core.UniquePrefixes(pas, nil)
	if d := dists[asn]; d != nil {
		if pool, ok := core.InferPoolBoundary(d, 8); ok && pool < p.TruncateLen {
			p.TruncateLen = pool
		}
	}
	if p.TruncateLen < 16 {
		p.TruncateLen = 16
	}
	return p, nil
}
