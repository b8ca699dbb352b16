package dhcp4

import (
	"errors"
	"fmt"
	"net/netip"
)

// ErrHopLimit is returned when a relay refuses to forward a message whose
// hop count has reached the configured ceiling (RFC 1542 §4.1.1).
var ErrHopLimit = errors.New("dhcp4: relay hop limit exceeded")

// relayHardHops is the absolute hop ceiling RFC 1542 §4.1.1 imposes
// ("must be discarded if it exceeds 16").
const relayHardHops = 16

// Relay is a BOOTP/DHCP relay agent (RFC 1542, RFC 2131 §4.3.1): a
// router on the subscriber's broadcast domain that forwards DHCP
// traffic to a server elsewhere in the ISP, stamping its own gateway
// address into giaddr so the server can both address the reply and pick
// the pool serving that subnet. Aggregation topologies chain several —
// access node behind a BNG behind a core relay — each incrementing the
// hop count.
type Relay struct {
	// GIAddr is the relay's gateway address, stamped into requests whose
	// giaddr is still empty (only the relay closest to the client sets
	// it; later hops preserve it, per RFC 1542 §4.1.1).
	GIAddr netip.Addr
	// MaxHops is the per-relay discard threshold; zero means the RFC's
	// hard ceiling of 16.
	MaxHops byte
}

// Forward relays a client-to-server message in place: the hop count is
// incremented and giaddr is stamped if this is the first relay on the
// path. A message that has traveled too far is rejected unchanged.
func (r *Relay) Forward(req *Message) error {
	if req.Op != OpRequest {
		return fmt.Errorf("dhcp4: relay forwarding non-request op %d", req.Op)
	}
	limit := r.MaxHops
	if limit == 0 || limit > relayHardHops {
		limit = relayHardHops
	}
	if req.Hops >= limit {
		return fmt.Errorf("%w: %d hops at relay %v", ErrHopLimit, req.Hops, r.GIAddr)
	}
	req.Hops++
	if !req.GIAddr.IsValid() || req.GIAddr == netip.IPv4Unspecified() {
		req.GIAddr = r.GIAddr
	}
	return nil
}

// Return checks a server-to-client reply on its way back toward the
// subscriber. The server unicasts replies to giaddr (RFC 2131 §4.1); a
// relay only accepts replies stamped with its own gateway address.
func (r *Relay) Return(rep *Message) error {
	if rep.Op != OpReply {
		return fmt.Errorf("dhcp4: relay returning non-reply op %d", rep.Op)
	}
	if rep.GIAddr != r.GIAddr {
		return fmt.Errorf("dhcp4: reply giaddr %v does not match relay %v", rep.GIAddr, r.GIAddr)
	}
	return nil
}

// RelayChain is an ordered aggregation path from the subscriber to the
// server: Chain[0] is the relay on the client's broadcast domain.
type RelayChain []*Relay

// NewRelayChain builds an n-hop chain with deterministic gateway
// addresses drawn from base's subnet (hop i gets base+i).
func NewRelayChain(base netip.Addr, n int) (RelayChain, error) {
	chain := make(RelayChain, 0, n)
	a := base
	for i := 0; i < n; i++ {
		if !a.Is4() && !a.Is4In6() {
			return nil, fmt.Errorf("dhcp4: relay gateway %v not IPv4", a)
		}
		chain = append(chain, &Relay{GIAddr: a.Unmap()})
		a = a.Next()
	}
	return chain, nil
}

// Forward runs a request up the whole chain, client to server, updating
// it in place. A hop that rejects it leaves the hops before it applied.
func (c RelayChain) Forward(req *Message) error {
	for _, r := range c {
		if err := r.Forward(req); err != nil {
			return err
		}
	}
	return nil
}

// Return checks a reply on its way down the chain, server to client.
// Only the innermost relay stamped giaddr, so only it validates the
// address; outer hops pass the reply through.
func (c RelayChain) Return(rep *Message) error {
	if len(c) == 0 {
		return nil
	}
	return c[0].Return(rep)
}
