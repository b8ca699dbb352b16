package netutil

import (
	"math/rand"
	"net/netip"
	"testing"
)

func pfxs(ss ...string) []netip.Prefix {
	out := make([]netip.Prefix, len(ss))
	for i, s := range ss {
		out[i] = netip.MustParsePrefix(s)
	}
	return out
}

func TestCoalesceMergesSiblings(t *testing.T) {
	got := Coalesce(pfxs("2003:1000:0:100::/56", "2003:1000:0:0::/56"))
	if len(got) != 1 || got[0] != netip.MustParsePrefix("2003:1000::/55") {
		t.Fatalf("Coalesce = %v", got)
	}
}

func TestCoalesceDropsCovered(t *testing.T) {
	got := Coalesce(pfxs("10.0.0.0/8", "10.1.0.0/16", "10.2.3.0/24", "192.0.2.0/24"))
	want := pfxs("10.0.0.0/8", "192.0.2.0/24")
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Coalesce = %v", got)
	}
}

func TestCoalesceRecursiveMerge(t *testing.T) {
	// Four /26 quarters of one /24 collapse fully.
	got := Coalesce(pfxs("192.0.2.0/26", "192.0.2.64/26", "192.0.2.128/26", "192.0.2.192/26"))
	if len(got) != 1 || got[0] != netip.MustParsePrefix("192.0.2.0/24") {
		t.Fatalf("Coalesce = %v", got)
	}
}

func TestCoalesceKeepsFamiliesApart(t *testing.T) {
	got := Coalesce(pfxs("0.0.0.0/1", "128.0.0.0/1", "::/1", "8000::/1"))
	if len(got) != 2 {
		t.Fatalf("Coalesce = %v", got)
	}
	if got[0] != netip.MustParsePrefix("0.0.0.0/0") || got[1] != netip.MustParsePrefix("::/0") {
		t.Fatalf("Coalesce = %v", got)
	}
}

func TestCoalesceEmptyAndInvalid(t *testing.T) {
	if got := Coalesce(nil); got != nil {
		t.Errorf("Coalesce(nil) = %v", got)
	}
	if got := Coalesce([]netip.Prefix{{}}); len(got) != 0 {
		t.Errorf("Coalesce(invalid) = %v", got)
	}
}

// TestCoalescePreservesCoverage: the coalesced set covers exactly the
// same addresses as the input (checked by sampling).
func TestCoalescePreservesCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		var in []netip.Prefix
		for i := 0; i < 30; i++ {
			bits := 8 + rng.Intn(16)
			p, _ := AddrFromU32(rng.Uint32()).Prefix(bits)
			in = append(in, p)
		}
		out := Coalesce(in)
		if len(out) > len(in) {
			t.Fatalf("coalesce grew the set: %d -> %d", len(in), len(out))
		}
		for q := 0; q < 500; q++ {
			a := AddrFromU32(rng.Uint32())
			if coveredBy(a, in) != coveredBy(a, out) {
				t.Fatalf("trial %d: coverage differs at %v\nin: %v\nout: %v", trial, a, in, out)
			}
		}
		// Sampling inside each input prefix too, where coverage is
		// guaranteed.
		for _, p := range in {
			host := rng.Uint64() & (1<<uint(32-p.Bits()) - 1)
			a, err := HostAddr(p, host)
			if err != nil {
				continue
			}
			if !coveredBy(a, out) {
				t.Fatalf("trial %d: %v in input %v not covered by output %v", trial, a, p, out)
			}
		}
	}
}

// coveredBy reports whether addr falls inside any prefix of the set.
func coveredBy(addr netip.Addr, set []netip.Prefix) bool {
	for _, p := range set {
		if p.Contains(addr) {
			return true
		}
	}
	return false
}
