// Package netutil provides the address and prefix algebra that the DynamIPs
// analyses are built on: common-prefix-length computation between successive
// assignments, trailing-zero inspection of delegated prefixes, nibble-boundary
// classification, prefix arithmetic for pool carving, and compact keys for
// the aggregation granularities the paper uses (IPv4 /24, IPv6 /64).
//
// All functions operate on net/netip values. IPv4 addresses are handled in
// their native 32-bit form (netip.Addr.Is4 or 4-in-6 mapped forms are
// normalized with Unmap).
package netutil

import (
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// ErrPrefixRange is returned when a requested sub-prefix or host index does
// not fit inside the parent prefix.
var ErrPrefixRange = errors.New("netutil: index out of prefix range")

// U128 returns the 128-bit value of an IPv6 address as two 64-bit halves.
// IPv4 addresses are mapped into the low 32 bits of lo with hi == 0.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func U128(a netip.Addr) (hi, lo uint64) {
	a = a.Unmap()
	if a.Is4() {
		b := a.As4()
		return 0, uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	}
	b := a.As16()
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return hi, lo
}

// AddrFrom128 builds an IPv6 address from two 64-bit halves.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func AddrFrom128(hi, lo uint64) netip.Addr {
	var b [16]byte
	for i := 7; i >= 0; i-- {
		b[i] = byte(hi)
		b[i+8] = byte(lo)
		hi >>= 8
		lo >>= 8
	}
	return netip.AddrFrom16(b)
}

// U32 returns the 32-bit value of an IPv4 address.
// It panics if a is not an IPv4 (or 4-in-6 mapped) address.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func U32(a netip.Addr) uint32 {
	a = a.Unmap()
	if !a.Is4() {
		panic(fmt.Sprintf("netutil: U32 on non-IPv4 address %v", a))
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// AddrFromU32 builds an IPv4 address from its 32-bit value.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func AddrFromU32(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// PrefixAt returns the prefix of the given length that contains a,
// with host bits zeroed (a masked prefix).
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func PrefixAt(a netip.Addr, length int) netip.Prefix {
	p, err := a.Unmap().Prefix(length)
	if err != nil {
		panic(fmt.Sprintf("netutil: PrefixAt(%v, %d): %v", a, length, err))
	}
	return p
}

// Prefix64 returns the /64 prefix containing the IPv6 address a.
// This is the granularity at which the paper tracks IPv6 assignments.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func Prefix64(a netip.Addr) netip.Prefix { return PrefixAt(a, 64) }

// Key64 returns the upper 64 bits (the network component) of an IPv6
// address, usable as a compact map key for its /64.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func Key64(a netip.Addr) uint64 {
	hi, _ := U128(a)
	return hi
}

// CommonPrefixLen returns the number of leading bits that a and b share.
// Both addresses must be the same family; the result is in [0, 32] for
// IPv4 and [0, 128] for IPv6. Mixed families return 0.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func CommonPrefixLen(a, b netip.Addr) int {
	a, b = a.Unmap(), b.Unmap()
	if a.Is4() != b.Is4() {
		return 0
	}
	if a.Is4() {
		x := U32(a) ^ U32(b)
		if x == 0 {
			return 32
		}
		return bits.LeadingZeros32(x)
	}
	ahi, alo := U128(a)
	bhi, blo := U128(b)
	if x := ahi ^ bhi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	if x := alo ^ blo; x != 0 {
		return 64 + bits.LeadingZeros64(x)
	}
	return 128
}

// CommonPrefixLen64 returns the common prefix length between two IPv6 /64
// prefixes, capped at 64. This is the paper's "CPL" metric (§5.2) between
// successive delegated-prefix observations.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func CommonPrefixLen64(a, b netip.Prefix) int {
	n := CommonPrefixLen(a.Addr(), b.Addr())
	if n > 64 {
		n = 64
	}
	return n
}

// ZeroBitsBefore64 returns the number of consecutive zero bits in the
// network component of p immediately above the /64 boundary; that is, the
// length of the run of zeros ending at bit 64 (exclusive) when scanning
// from bit 63 upward. For a /64 prefix 2001:db8:40:aa00::/64 the low byte
// of the network part is 0x00, so the result is at least 8.
//
// The paper's RIPE Atlas subscriber-boundary technique (§5.3) intersects
// this over all /64s a probe observed: inferred length = 64 - zeros.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func ZeroBitsBefore64(p netip.Prefix) int {
	hi, _ := U128(p.Addr())
	if hi == 0 {
		return 64
	}
	return bits.TrailingZeros64(hi)
}

// ZeroBitsBefore64Of intersects ZeroBitsBefore64 across a set of /64
// prefixes: it returns the number of low bits of the network component that
// are zero in every element. An empty set yields 0.
func ZeroBitsBefore64Of(prefixes []netip.Prefix) int {
	if len(prefixes) == 0 {
		return 0
	}
	var or uint64
	for _, p := range prefixes {
		hi, _ := U128(p.Addr())
		or |= hi
	}
	if or == 0 {
		return 64
	}
	return bits.TrailingZeros64(or)
}

// NibbleZeroRun returns the longest run of zero bits ending at the /64
// boundary, rounded DOWN to a whole number of nibbles (multiples of 4 bits).
// The CDN trailing-zero technique (§5.3, Fig. 7) classifies each /64 by
// this run: 4 zero bits → /60 delegation, 8 → /56, 12 → /52, 16+ → /48.
//
//lint:hotpath called per record on the CDN/Atlas aggregation paths
func NibbleZeroRun(p netip.Prefix) int {
	z := ZeroBitsBefore64(p)
	return z &^ 3 // round down to nibble boundary
}

// InferredDelegation classifies a /64 prefix by its nibble-aligned trailing
// zero run into an inferred delegated-prefix length, mirroring Fig. 7's
// /48, /52, /56, /60 buckets. The boolean is false when the /64 has no
// nibble-aligned trailing zeros (no inference possible).
func InferredDelegation(p netip.Prefix) (length int, ok bool) {
	run := NibbleZeroRun(p)
	if run == 0 {
		return 0, false
	}
	if run > 16 {
		run = 16 // paper buckets stop at /48
	}
	return 64 - run, true
}

// SubPrefix returns the index-th sub-prefix of the given length inside
// parent. Index 0 is the lowest-numbered sub-prefix. It fails if length is
// shorter than the parent's or the index does not fit.
func SubPrefix(parent netip.Prefix, length int, index uint64) (netip.Prefix, error) {
	parent = parent.Masked()
	pb := parent.Bits()
	a := parent.Addr()
	maxBits := 32
	if a.Is6() {
		maxBits = 128
	}
	if length < pb || length > maxBits {
		return netip.Prefix{}, fmt.Errorf("netutil: sub-prefix /%d of %v: %w", length, parent, ErrPrefixRange)
	}
	span := length - pb
	if span < 64 && index >= 1<<uint(span) {
		return netip.Prefix{}, fmt.Errorf("netutil: index %d exceeds /%d span of %v: %w", index, length, parent, ErrPrefixRange)
	}
	if a.Is4() {
		v := U32(a) | uint32(index)<<(32-length)
		return netip.PrefixFrom(AddrFromU32(v), length), nil
	}
	hi, lo := U128(a)
	if length <= 64 {
		hi |= index << (64 - length)
	} else {
		// The index may straddle the hi/lo split when parent is shorter
		// than /64. Go defines x>>64 == 0 for uint64, so the hi
		// contribution vanishes when it does not straddle.
		shift := uint(128 - length)
		lo |= index << shift
		hi |= index >> (64 - shift)
	}
	return netip.PrefixFrom(AddrFrom128(hi, lo), length), nil
}

// HostAddr returns the address at the given host offset inside p.
// Offset 0 is the network address itself. It fails if host does not fit in
// the prefix's host bits (host bits wider than 64 accept any uint64).
func HostAddr(p netip.Prefix, host uint64) (netip.Addr, error) {
	p = p.Masked()
	a := p.Addr()
	if a.Is4() {
		hostBits := 32 - p.Bits()
		if hostBits < 32 && host >= 1<<uint(hostBits) {
			return netip.Addr{}, fmt.Errorf("netutil: host %d in %v: %w", host, p, ErrPrefixRange)
		}
		return AddrFromU32(U32(a) | uint32(host)), nil
	}
	hostBits := 128 - p.Bits()
	if hostBits < 64 && host >= 1<<uint(hostBits) {
		return netip.Addr{}, fmt.Errorf("netutil: host %d in %v: %w", host, p, ErrPrefixRange)
	}
	hi, lo := U128(a)
	if hostBits <= 64 {
		lo |= host
	} else {
		lo |= host // wider host parts still place the offset in the low half
	}
	return AddrFrom128(hi, lo), nil
}

// ContainsPrefix reports whether outer fully contains inner
// (same family, outer no longer than inner, and inner's network falls
// inside outer).
func ContainsPrefix(outer, inner netip.Prefix) bool {
	if outer.Addr().Is4() != inner.Addr().Is4() {
		return false
	}
	return outer.Bits() <= inner.Bits() && outer.Contains(inner.Addr())
}

// SameAtLength reports whether two addresses fall in the same prefix of the
// given length.
func SameAtLength(a, b netip.Addr, length int) bool {
	return CommonPrefixLen(a, b) >= length
}

// ScrambleBits returns a copy of the /64 prefix p with the bits between
// position `fromBit` (inclusive, counting from the left, 0-based) and the
// /64 boundary replaced by the low bits of r. This models CPE devices that
// "scramble the available bits in the ISP-delegated prefix" (§5.2, fn. 5 —
// a feature of many DTAG CPEs): the delegated /56 stays fixed while the
// sub-/64 selector bits are randomized.
func ScrambleBits(p netip.Prefix, fromBit int, r uint64) netip.Prefix {
	if fromBit < 0 || fromBit >= 64 {
		return p
	}
	hi, lo := U128(p.Addr())
	width := 64 - fromBit
	var mask uint64
	if width >= 64 {
		mask = ^uint64(0)
	} else {
		mask = 1<<uint(width) - 1
	}
	hi = hi&^mask | r&mask
	return netip.PrefixFrom(AddrFrom128(hi, lo), p.Bits()).Masked()
}

// ComparePrefix orders prefixes by address and then by length (shorter, i.e.
// less specific, first), the natural address-space order. It fills the gap
// left by net/netip, whose Prefix has no Compare method, and replaces
// String()-based sorting, which is both slower and wrong ("10.0.0.0/8"
// sorts before "2.0.0.0/8" as a string).
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	switch {
	case a.Bits() < b.Bits():
		return -1
	case a.Bits() > b.Bits():
		return 1
	}
	return 0
}
