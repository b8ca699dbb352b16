// Package addrpool is the one allocation policy behind the assignment
// servers (dhcp4, dhcp6 and radius): a strided walk over a list of
// pools, a LIFO free list of released units, and a record of which
// holder holds each unit. A unit is a single IPv4 address or a delegated
// IPv6 prefix; a holder is whatever the server binds it to (a lease, a
// binding, a session).
//
// Holders are recorded by the unit's walk position, not hashed by the
// unit: a unit's position is plain arithmetic, the inverse of the walk,
// so the record is one slice that grows as the walk advances.
package addrpool

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/netutil"
)

// Pool hands out units U carved from its pools and records which holder
// H holds each one, so that only the current holder can free a unit. It
// is not safe for concurrent use.
type Pool[U, H comparable] struct {
	spans     []span
	stride    uint64
	inverse   uint64                   // stride⁻¹ mod 2⁶⁴, hence mod every span's size
	unit      func(n uint64) U         // the unit numbered n
	number    func(u U) (uint64, bool) // u's number, if u is a unit of this pool's family and length
	exhausted error

	held   []holding[H] // by walk position, as far as the walk or a Hold has reached
	freed  []int        // walk positions of released units, reused LIFO
	cursor int          // index of the span the walk is in
	offset uint64       // the walk's next k within spans[cursor]
}

// span is one pool. Units are numbered by their leading bits (an IPv4
// address by its 32 bits, a /n delegation by its first n bits), so the
// pool's units are numbers first to first+size-1, and the unit at slot
// (k*stride) mod size is at walk position base+k.
type span struct {
	first, size uint64
	base        int
}

type holding[H comparable] struct {
	h    H
	held bool
}

// Addrs returns a pool of the IPv4 addresses in pools, walked with the
// given odd stride; Next returns exhausted when none is left to hand out.
func Addrs[H comparable](pools []netip.Prefix, stride uint64, exhausted error) (*Pool[netip.Addr, H], error) {
	for _, p := range pools {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("addrpool: non-IPv4 pool %v", p)
		}
	}
	unit := func(n uint64) netip.Addr { return netutil.AddrFromU32(uint32(n)) }
	number := func(a netip.Addr) (uint64, bool) { return lead(a) >> 32, a.Is4() }
	return newPool[netip.Addr, H](pools, 32, stride, exhausted, unit, number)
}

// Prefixes returns a pool of the /bits delegations carved from the IPv6
// pools, walked with the given odd stride; Next returns exhausted when
// none is left to hand out.
func Prefixes[H comparable](pools []netip.Prefix, bits int, stride uint64, exhausted error) (*Pool[netip.Prefix, H], error) {
	for _, p := range pools {
		if !p.Addr().Is6() || p.Addr().Is4In6() {
			return nil, fmt.Errorf("addrpool: non-IPv6 pool %v", p)
		}
		if bits < p.Bits() || bits > 64 {
			return nil, fmt.Errorf("addrpool: delegated length /%d incompatible with pool %v", bits, p)
		}
	}
	shift := uint(64 - bits)
	unit := func(n uint64) netip.Prefix {
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], n<<shift)
		return netip.PrefixFrom(netip.AddrFrom16(b), bits)
	}
	number := func(p netip.Prefix) (uint64, bool) {
		// An IPv4 or 4-in-6 address has a nonzero low half here.
		b := p.Addr().As16()
		hi, lo := binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
		return hi >> shift, p.Bits() == bits && lo == 0 && hi&(1<<shift-1) == 0
	}
	return newPool[netip.Prefix, H](pools, bits, stride, exhausted, unit, number)
}

func newPool[U, H comparable](pools []netip.Prefix, bits int, stride uint64, exhausted error, unit func(uint64) U, number func(U) (uint64, bool)) (*Pool[U, H], error) {
	if len(pools) == 0 {
		return nil, errors.New("addrpool: no pools")
	}
	// An odd stride is coprime with every power-of-two pool size, so the
	// walk visits each slot of a pool exactly once, and it has an inverse.
	if stride%2 == 0 {
		return nil, fmt.Errorf("addrpool: even stride %d", stride)
	}
	p := &Pool[U, H]{
		stride:    stride,
		inverse:   inverse(stride),
		unit:      unit,
		number:    number,
		exhausted: exhausted,
	}
	base := 0
	for i, pool := range pools {
		for _, q := range pools[:i] {
			if q.Overlaps(pool) {
				return nil, fmt.Errorf("addrpool: pools %v and %v overlap", q, pool)
			}
		}
		pool = pool.Masked()
		sp := span{first: lead(pool.Addr()) >> uint(64-bits), size: 1 << uint(bits-pool.Bits()), base: base}
		p.spans = append(p.spans, sp)
		base += int(sp.size)
	}
	return p, nil
}

// lead returns the first 64 bits of a: an IPv4 address's 32, then zeros.
func lead(a netip.Addr) uint64 {
	if a.Is4() {
		return uint64(netutil.U32(a)) << 32
	}
	b := a.As16()
	return binary.BigEndian.Uint64(b[:8])
}

// inverse returns the multiplicative inverse of the odd x modulo 2⁶⁴ by
// Newton's iteration: x is its own inverse to 3 bits, and each step
// doubles the bits that are right.
func inverse(x uint64) uint64 {
	y := x
	for i := 0; i < 5; i++ {
		y *= 2 - x*y
	}
	return y
}

// Size returns the number of units across the pools.
func (p *Pool[U, H]) Size() uint64 {
	var n uint64
	for _, sp := range p.spans {
		n += sp.size
	}
	return n
}

// position returns u's walk position, if u is a unit of the pools.
//
//lint:hotpath every Hold, Holder and Free
func (p *Pool[U, H]) position(u U) (int, bool) {
	n, ok := p.number(u)
	if !ok {
		return 0, false
	}
	for _, sp := range p.spans {
		if slot := n - sp.first; slot < sp.size {
			return sp.base + int(slot*p.inverse&(sp.size-1)), true
		}
	}
	return 0, false
}

// at returns the unit at walk position pos.
//
//lint:hotpath every Next from the free list
func (p *Pool[U, H]) at(pos int) U {
	sp := &p.spans[0]
	for i := 1; i < len(p.spans) && pos >= p.spans[i].base; i++ {
		sp = &p.spans[i]
	}
	return p.unit(sp.first + uint64(pos-sp.base)*p.stride&(sp.size-1))
}

// isHeld reports whether the unit at walk position pos has a holder.
func (p *Pool[U, H]) isHeld(pos int) bool { return pos < len(p.held) && p.held[pos].held }

// Next returns the most recently freed unit that is still unheld or,
// failing that, the next unheld slot of the walk: slot (k*stride) mod
// size of the current pool for k = 0, 1, ..., then the next pool. The
// unit is not held until the caller Holds it. With the walk done and no
// unheld unit freed, Next returns the pool's exhausted error.
//
//lint:hotpath every session start, lease and delegation
func (p *Pool[U, H]) Next() (U, error) {
	for len(p.freed) > 0 {
		pos := p.freed[len(p.freed)-1]
		p.freed = p.freed[:len(p.freed)-1]
		if !p.isHeld(pos) {
			return p.at(pos), nil
		}
	}
	for p.cursor < len(p.spans) {
		sp := &p.spans[p.cursor]
		for p.offset < sp.size {
			k := p.offset
			p.offset++
			if !p.isHeld(sp.base + int(k)) {
				return p.unit(sp.first + k*p.stride&(sp.size-1)), nil
			}
		}
		p.cursor++
		p.offset = 0
	}
	var none U
	return none, p.exhausted
}

// Hold records h as u's holder, replacing any earlier holder. A unit
// that is not one of the pools' is never held.
//
//lint:hotpath every session start, lease and delegation
func (p *Pool[U, H]) Hold(u U, h H) {
	pos, ok := p.position(u)
	if !ok {
		return
	}
	if pos >= len(p.held) {
		p.held = append(p.held, make([]holding[H], pos+1-len(p.held))...)
	}
	p.held[pos] = holding[H]{h: h, held: true}
}

// Holder returns u's holder, if it has one.
func (p *Pool[U, H]) Holder(u U) (H, bool) {
	if pos, ok := p.position(u); ok && p.isHeld(pos) {
		return p.held[pos].h, true
	}
	var none H
	return none, false
}

// Free releases u onto the free list, but only while h holds it: a
// stale release from a former holder cannot take the unit from its
// current one. It reports whether u was freed.
//
//lint:hotpath every session stop, release and renumber
func (p *Pool[U, H]) Free(u U, h H) bool {
	pos, ok := p.position(u)
	if !ok || !p.isHeld(pos) || p.held[pos].h != h {
		return false
	}
	p.held[pos] = holding[H]{}
	p.freed = append(p.freed, pos)
	return true
}

// Drop forgets every holder, as a server that loses its state does. The
// free list and the walk position are kept, so a unit held at the drop
// is not handed out again: the walk has passed it and it was never freed.
func (p *Pool[U, H]) Drop() { clear(p.held) }

// ForgetFreed empties the free list, so Next draws only from the part
// of the walk not yet handed out.
func (p *Pool[U, H]) ForgetFreed() { p.freed = nil }
