package netutil

import (
	"net/netip"
	"sort"
)

// Coalesce merges a set of prefixes into the minimal equivalent set:
// prefixes covered by others are dropped, and sibling pairs are merged
// into their parent, recursively. Families never merge with each other.
// The input is not modified; the result is sorted by family, network,
// then length.
//
// Blocklist maintenance uses this to aggregate per-subscriber blocks
// (§6): blocking every /56 of a misbehaving pool collapses into the pool
// prefix itself.
func Coalesce(prefixes []netip.Prefix) []netip.Prefix {
	if len(prefixes) == 0 {
		return nil
	}
	ps := make([]netip.Prefix, 0, len(prefixes))
	for _, p := range prefixes {
		if p.IsValid() {
			ps = append(ps, p.Masked())
		}
	}
	for {
		sortPrefixes(ps)
		// Drop prefixes covered by an earlier (shorter-or-equal) one.
		kept := ps[:0]
		for _, p := range ps {
			covered := false
			for _, q := range kept {
				if ContainsPrefix(q, p) {
					covered = true
					break
				}
			}
			if !covered {
				kept = append(kept, p)
			}
		}
		ps = kept
		// Merge sibling pairs.
		merged := false
		out := ps[:0]
		for i := 0; i < len(ps); i++ {
			if i+1 < len(ps) && siblings(ps[i], ps[i+1]) {
				parent, err := ps[i].Addr().Prefix(ps[i].Bits() - 1)
				if err == nil {
					out = append(out, parent)
					i++
					merged = true
					continue
				}
			}
			out = append(out, ps[i])
		}
		ps = out
		if !merged {
			return append([]netip.Prefix(nil), ps...)
		}
	}
}

// siblings reports whether a and b are the two halves of one parent.
func siblings(a, b netip.Prefix) bool {
	if a.Bits() != b.Bits() || a.Bits() == 0 {
		return false
	}
	if a.Addr().Is4() != b.Addr().Is4() {
		return false
	}
	pa, erra := a.Addr().Prefix(a.Bits() - 1)
	pb, errb := b.Addr().Prefix(b.Bits() - 1)
	return erra == nil && errb == nil && pa == pb && a != b
}

func sortPrefixes(ps []netip.Prefix) {
	sort.Slice(ps, func(i, j int) bool {
		ai, aj := ps[i].Addr(), ps[j].Addr()
		if ai.Is4() != aj.Is4() {
			return ai.Is4()
		}
		if c := ai.Compare(aj); c != 0 {
			return c < 0
		}
		return ps[i].Bits() < ps[j].Bits()
	})
}
