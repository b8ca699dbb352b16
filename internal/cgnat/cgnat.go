// Package cgnat implements the Carrier-Grade NAT substrate the paper
// describes for cellular and address-starved fixed networks (§2.1): the
// gateway multiplexes many subscribers onto few public addresses — the
// mechanism behind §4.3's mobile /24s carrying ~10^5 IPv6 /64
// associations.
//
// The gateway implements deterministic port-block allocation: each
// subscriber is bound to one port block on one public address, in
// allocation order, so the binding alone fixes the subscriber's public
// /24.
package cgnat

import (
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/netutil"
)

// Config sizes a gateway.
type Config struct {
	// Public lists the gateway's public IPv4 prefixes.
	Public []netip.Prefix
	// PortsPerBlock is the size of each allocated port block.
	PortsPerBlock int
	// PortFloor is the lowest translated port (well-known ports are
	// never handed out).
	PortFloor int
}

// DefaultConfig matches common deployments: 512-port blocks, translated
// ports above 1024.
func DefaultConfig(public ...netip.Prefix) Config {
	return Config{Public: public, PortsPerBlock: 512, PortFloor: 1024}
}

// Binding is one subscriber's port-block allocation.
type Binding struct {
	Subscriber string
	Public     netip.Addr
	// Block is the first port of the subscriber's
	// [Block, Block+PortsPerBlock) range.
	Block int
}

// ErrExhausted is returned when every port block is allocated.
var ErrExhausted = errors.New("cgnat: public ports exhausted")

// Gateway multiplexes subscribers onto public addresses with
// deterministic port-block allocation. It is not safe for concurrent use.
type Gateway struct {
	cfg       Config
	blocksPer int // usable blocks per public address
	byName    map[string]*Binding
	next      int // global block cursor
	capacity  int // total blocks
	addrs     []netip.Addr
}

// NewGateway builds a gateway; it panics on configuration bugs.
func NewGateway(cfg Config) *Gateway {
	if len(cfg.Public) == 0 {
		panic("cgnat: no public prefixes")
	}
	if cfg.PortsPerBlock <= 0 {
		panic("cgnat: non-positive block sizing")
	}
	if cfg.PortFloor < 0 || cfg.PortFloor >= 65536 {
		panic("cgnat: bad port floor")
	}
	g := &Gateway{cfg: cfg, byName: make(map[string]*Binding)}
	g.blocksPer = (65536 - cfg.PortFloor) / cfg.PortsPerBlock
	for _, p := range cfg.Public {
		if !p.Addr().Unmap().Is4() {
			panic(fmt.Sprintf("cgnat: non-IPv4 public prefix %v", p))
		}
		size := 1 << uint(32-p.Bits())
		for i := 0; i < size; i++ {
			a, err := netutil.HostAddr(p, uint64(i))
			if err != nil {
				panic(err)
			}
			g.addrs = append(g.addrs, a)
		}
	}
	g.capacity = len(g.addrs) * g.blocksPer
	return g
}

// Capacity returns the total number of port blocks.
func (g *Gateway) Capacity() int { return g.capacity }

// Subscribers returns the number of bound subscribers.
func (g *Gateway) Subscribers() int { return len(g.byName) }

// Bind allocates the subscriber's port block (idempotent): blocks are
// handed out in order, filling each public address before the next.
func (g *Gateway) Bind(subscriber string) (*Binding, error) {
	if b, ok := g.byName[subscriber]; ok {
		return b, nil
	}
	if g.next >= g.capacity {
		return nil, ErrExhausted
	}
	b := &Binding{
		Subscriber: subscriber,
		Public:     g.addrs[g.next/g.blocksPer],
		Block:      g.cfg.PortFloor + (g.next%g.blocksPer)*g.cfg.PortsPerBlock,
	}
	g.next++
	g.byName[subscriber] = b
	return b, nil
}
