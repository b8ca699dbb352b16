// Package addrpool is the one allocation policy behind the assignment
// servers (dhcp4, dhcp6 and radius): a strided walk over a list of
// pools, a LIFO free list of released units, and a record of which
// holder holds each unit. A unit is a single IPv4 address or a delegated
// IPv6 prefix; a holder is whatever the server binds it to (a lease, a
// binding, a session).
package addrpool

import (
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/netutil"
)

// Pool hands out units U carved from its pools and records which holder
// H holds each one, so that only the current holder can free a unit. It
// is not safe for concurrent use.
type Pool[U, H comparable] struct {
	pools     []netip.Prefix
	bits      int // unit length: 32 for addresses, the delegated length for prefixes
	stride    uint64
	carve     func(pool netip.Prefix, slot uint64) (U, error)
	exhausted error

	holder map[U]H
	freed  []U    // released units, reused LIFO
	cursor int    // index of the pool the walk is in
	offset uint64 // the walk's next k within pools[cursor]
}

// Addrs returns a pool of the IPv4 addresses in pools, walked with the
// given odd stride; Next returns exhausted when none is left to hand out.
func Addrs[H comparable](pools []netip.Prefix, stride uint64, exhausted error) (*Pool[netip.Addr, H], error) {
	for _, p := range pools {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("addrpool: non-IPv4 pool %v", p)
		}
	}
	return newPool[netip.Addr, H](pools, 32, stride, exhausted, netutil.HostAddr)
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
	carve := func(pool netip.Prefix, slot uint64) (netip.Prefix, error) {
		return netutil.SubPrefix(pool, bits, slot)
	}
	return newPool[netip.Prefix, H](pools, bits, stride, exhausted, carve)
}

func newPool[U, H comparable](pools []netip.Prefix, bits int, stride uint64, exhausted error, carve func(netip.Prefix, uint64) (U, error)) (*Pool[U, H], error) {
	if len(pools) == 0 {
		return nil, errors.New("addrpool: no pools")
	}
	// An odd stride is coprime with every power-of-two pool size, so the
	// walk visits each slot of a pool exactly once.
	if stride%2 == 0 {
		return nil, fmt.Errorf("addrpool: even stride %d", stride)
	}
	return &Pool[U, H]{
		pools:     pools,
		bits:      bits,
		stride:    stride,
		carve:     carve,
		exhausted: exhausted,
		holder:    make(map[U]H),
	}, nil
}

// size is the number of units in pool.
func (p *Pool[U, H]) size(pool netip.Prefix) uint64 {
	return 1 << uint(p.bits-pool.Bits())
}

// Size returns the number of units across the pools.
func (p *Pool[U, H]) Size() uint64 {
	var n uint64
	for _, pool := range p.pools {
		n += p.size(pool)
	}
	return n
}

// Next returns the most recently freed unit that is still unheld or,
// failing that, the next unheld slot of the walk: slot (k*stride) mod
// size of the current pool for k = 0, 1, ..., then the next pool. The
// unit is not held until the caller Holds it. With the walk done and no
// unheld unit freed, Next returns the pool's exhausted error.
func (p *Pool[U, H]) Next() (U, error) {
	for len(p.freed) > 0 {
		u := p.freed[len(p.freed)-1]
		p.freed = p.freed[:len(p.freed)-1]
		if _, held := p.holder[u]; !held {
			return u, nil
		}
	}
	for p.cursor < len(p.pools) {
		pool := p.pools[p.cursor]
		size := p.size(pool)
		for p.offset < size {
			u, err := p.carve(pool, p.offset*p.stride%size)
			p.offset++
			if err != nil {
				return u, err
			}
			if _, held := p.holder[u]; !held {
				return u, nil
			}
		}
		p.cursor++
		p.offset = 0
	}
	var none U
	return none, p.exhausted
}

// Hold records h as u's holder, replacing any earlier holder.
func (p *Pool[U, H]) Hold(u U, h H) { p.holder[u] = h }

// Holder returns u's holder, if it has one.
func (p *Pool[U, H]) Holder(u U) (H, bool) {
	h, ok := p.holder[u]
	return h, ok
}

// Free releases u onto the free list, but only while h holds it: a
// stale release from a former holder cannot take the unit from its
// current one. It reports whether u was freed.
func (p *Pool[U, H]) Free(u U, h H) bool {
	if cur, ok := p.holder[u]; !ok || cur != h {
		return false
	}
	delete(p.holder, u)
	p.freed = append(p.freed, u)
	return true
}

// Drop forgets every holder, as a server that loses its state does. The
// free list and the walk position are kept, so a unit held at the drop
// is not handed out again: the walk has passed it and it was never freed.
func (p *Pool[U, H]) Drop() { p.holder = make(map[U]H) }

// ForgetFreed empties the free list, so Next draws only from the part
// of the walk not yet handed out.
func (p *Pool[U, H]) ForgetFreed() { p.freed = nil }
