package rtrie

import (
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

// TestInsertAgainstModel drives the trie with a random insert workload,
// re-inserting existing prefixes as often as fresh ones, and cross-checks
// every intermediate state against a map-plus-linear-scan model.
func TestInsertAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		var tr Trie[int]
		model := make(map[netip.Prefix]int)

		randomPrefix := func() netip.Prefix {
			if rng.Intn(2) == 0 {
				bits := rng.Intn(17) + 8
				a := netutil.AddrFromU32(rng.Uint32())
				p, _ := a.Prefix(bits)
				return p
			}
			bits := rng.Intn(41) + 8
			a := netutil.AddrFrom128(rng.Uint64(), 0)
			p, _ := a.Prefix(bits)
			return p
		}

		var pool []netip.Prefix
		for step := 0; step < 400; step++ {
			var p netip.Prefix
			if len(pool) > 0 && rng.Intn(2) == 0 {
				p = pool[rng.Intn(len(pool))] // replace an existing entry
			} else {
				p = randomPrefix()
				pool = append(pool, p)
			}
			fresh := tr.Insert(p, step)
			_, existed := model[p]
			if fresh == existed {
				t.Fatalf("trial %d step %d: Insert(%v) fresh=%v but model existed=%v",
					trial, step, p, fresh, existed)
			}
			model[p] = step
			if tr.Len() != len(model) {
				t.Fatalf("trial %d step %d: Len=%d model=%d", trial, step, tr.Len(), len(model))
			}
		}

		// Final state: every lookup matches a scan.
		for q := 0; q < 200; q++ {
			var a netip.Addr
			if rng.Intn(2) == 0 {
				a = netutil.AddrFromU32(rng.Uint32())
			} else {
				a = netutil.AddrFrom128(rng.Uint64(), rng.Uint64())
			}
			bestBits := -1
			bestVal := 0
			for p, v := range model {
				if p.Contains(a) && p.Bits() > bestBits {
					bestBits, bestVal = p.Bits(), v
				}
			}
			v, mp, ok := tr.Lookup(a)
			if ok != (bestBits >= 0) {
				t.Fatalf("trial %d: Lookup(%v) ok=%v scan=%v", trial, a, ok, bestBits >= 0)
			}
			if ok && (v != bestVal || mp.Bits() != bestBits) {
				t.Fatalf("trial %d: Lookup(%v) = (%d,/%d) scan (%d,/%d)",
					trial, a, v, mp.Bits(), bestVal, bestBits)
			}
		}
		// Walk visits exactly the model's entries.
		visited := 0
		tr.Walk(func(p netip.Prefix, v int) bool {
			if mv, ok := model[p]; !ok || mv != v {
				t.Fatalf("trial %d: walk visited unexpected (%v,%d)", trial, p, v)
			}
			visited++
			return true
		})
		if visited != len(model) {
			t.Fatalf("trial %d: walk visited %d of %d", trial, visited, len(model))
		}
	}
}
