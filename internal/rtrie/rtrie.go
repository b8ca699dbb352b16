// Package rtrie implements a binary trie over netip.Prefix keys with
// longest-prefix-match lookup for both IPv4 and IPv6: one node per prefix
// bit, without path compression, so a lookup walks at most the stored
// prefix lengths. It backs the Routeviews-style pfx2as table
// (internal/bgp) and the RIR delegation map (internal/rir) that DynamIPs
// uses to classify addresses by routed BGP prefix and registry.
//
// The trie keeps separate roots per address family. IPv4-mapped IPv6
// addresses are unmapped before keying, matching netip semantics, and an
// IPv4-mapped prefix (::ffff:a.b.c.d/n, n >= 96 once masked) is stored as
// the IPv4 prefix a.b.c.d/(n-96) that Lookup and Walk see.
package rtrie

import (
	"fmt"
	"net/netip"

	"dynamips/internal/netutil"
)

type node[V any] struct {
	child [2]*node[V]
	val   V
	has   bool
}

// Trie is a longest-prefix-match table from netip.Prefix to V.
// The zero value is an empty table ready to use. Trie is not safe for
// concurrent mutation; concurrent lookups without writers are safe.
type Trie[V any] struct {
	v4, v6 node[V]
	n      int
}

// bitAt returns bit i (0 = most significant) of the address key.
func bitAt(hi, lo uint64, i int) int {
	if i < 64 {
		return int(hi >> (63 - i) & 1)
	}
	return int(lo >> (127 - i) & 1)
}

func (t *Trie[V]) rootAndKey(a netip.Addr) (*node[V], uint64, uint64, int) {
	a = a.Unmap()
	if a.Is4() {
		v := netutil.U32(a)
		return &t.v4, uint64(v) << 32, 0, 32
	}
	hi, lo := netutil.U128(a)
	return &t.v6, hi, lo, 128
}

// Insert adds or replaces the value for prefix p. It returns true when the
// prefix was not previously present.
func (t *Trie[V]) Insert(p netip.Prefix, v V) bool {
	if !p.IsValid() {
		panic(fmt.Sprintf("rtrie: insert of invalid prefix %v", p))
	}
	p = p.Masked()
	bits := p.Bits()
	if p.Addr().Is4In6() {
		bits -= 96 // rootAndKey unmaps the address to the IPv4 root
	}
	n, hi, lo, _ := t.rootAndKey(p.Addr())
	for i := 0; i < bits; i++ {
		b := bitAt(hi, lo, i)
		if n.child[b] == nil {
			n.child[b] = &node[V]{}
		}
		n = n.child[b]
	}
	fresh := !n.has
	n.val, n.has = v, true
	if fresh {
		t.n++
	}
	return fresh
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.n }

// Lookup returns the value of the longest stored prefix containing a, the
// matched prefix itself, and whether any prefix matched.
func (t *Trie[V]) Lookup(a netip.Addr) (V, netip.Prefix, bool) {
	var (
		zero    V
		best    V
		bestLen = -1
	)
	n, hi, lo, max := t.rootAndKey(a)
	for i := 0; ; i++ {
		if n.has {
			best, bestLen = n.val, i
		}
		if i >= max {
			break
		}
		n = n.child[bitAt(hi, lo, i)]
		if n == nil {
			break
		}
	}
	if bestLen < 0 {
		return zero, netip.Prefix{}, false
	}
	mp, err := a.Unmap().Prefix(bestLen)
	if err != nil {
		return zero, netip.Prefix{}, false
	}
	return best, mp, true
}

// Walk visits every stored (prefix, value) pair in lexicographic key order,
// IPv4 first. Returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(p netip.Prefix, v V) bool) {
	if !walkNode(&t.v4, 0, 0, 0, true, fn) {
		return
	}
	walkNode(&t.v6, 0, 0, 0, false, fn)
}

// walkNode is the recursive body of Walk as a package-level function: a
// method-local closure would be re-allocated on every Walk call.
func walkNode[V any](n *node[V], hi, lo uint64, depth int, v4 bool, fn func(p netip.Prefix, v V) bool) bool {
	if n == nil {
		return true
	}
	if n.has {
		var p netip.Prefix
		if v4 {
			p = netip.PrefixFrom(netutil.AddrFromU32(uint32(hi>>32)), depth)
		} else {
			p = netip.PrefixFrom(netutil.AddrFrom128(hi, lo), depth)
		}
		if !fn(p, n.val) {
			return false
		}
	}
	if depth >= 128 || (v4 && depth >= 32) {
		return true
	}
	if !walkNode(n.child[0], hi, lo, depth+1, v4, fn) {
		return false
	}
	var nhi, nlo = hi, lo
	if depth < 64 {
		nhi = hi | 1<<(63-depth)
	} else {
		nlo = lo | 1<<(127-depth)
	}
	return walkNode(n.child[1], nhi, nlo, depth+1, v4, fn)
}
