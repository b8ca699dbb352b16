package dhcp4

import (
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/addrpool"
)

// Clock supplies time to the server in seconds: the simulation's virtual
// epoch (isp's sim clock, or a serve-bng shard's event clock).
type Clock interface {
	Now() int64
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// ErrPoolExhausted is returned when no address is available.
var ErrPoolExhausted = errors.New("dhcp4: address pool exhausted")

// ServerConfig configures a lease server.
type ServerConfig struct {
	// Pools are the ranges addresses are drawn from, in order.
	Pools []netip.Prefix
	// LeaseSeconds is the lease duration granted to clients.
	LeaseSeconds uint32
	// Sticky controls whether the server remembers released bindings and
	// re-offers the same address to a returning client while no one else
	// holds it (typical DHCP server behavior). When false the server
	// forgets a binding at release, modeling RADIUS-style assignment
	// where reconnecting yields whatever address is free (§2.2).
	Sticky bool
	// ServerID is the server identifier placed in replies.
	ServerID netip.Addr
}

// Lease is one binding: Expiry is the end of the lifetime the server
// advertised, counted on its clock. The server never expires a lease
// itself; it holds its address until Release or Forget.
type Lease struct {
	Addr   netip.Addr
	Expiry int64
}

// client is the server's one record of a client, kept from its first
// Discover until Forget: the address of its lease and the address it was
// last offered, each valid while its flag is set. A release frees the
// address, but a sticky server keeps the lease, to re-offer it.
type client struct {
	addr, offer     [4]byte
	leased, offered bool
}

// Server implements the DHCP state machine over a set of address pools.
// It answers Discover, Request (naming the requested-IP option) and
// Release. It is not safe for concurrent use; callers serialize access
// (each serve-bng shard owns its servers).
type Server struct {
	cfg   ServerConfig
	clock Clock

	// pool walks the pools sequentially (stride 1); each held address's
	// holder is the client leased to it.
	pool    *addrpool.Pool[netip.Addr, HWAddr]
	clients map[HWAddr]client

	rep Message // the reply Handle builds and returns
	acq Message // Acquire's request
}

// NewServer builds a Server. It panics on an empty pool set, zero lease, or
// a non-IPv4 pool, which are configuration bugs.
func NewServer(cfg ServerConfig, clock Clock) *Server {
	if cfg.LeaseSeconds == 0 {
		panic("dhcp4: zero lease duration")
	}
	pool, err := addrpool.Addrs[HWAddr](cfg.Pools, 1, ErrPoolExhausted)
	if err != nil {
		panic("dhcp4: " + err.Error())
	}
	if !cfg.ServerID.IsValid() {
		cfg.ServerID = netip.MustParseAddr("192.0.2.1")
	}
	return &Server{
		cfg:     cfg,
		clock:   clock,
		pool:    pool,
		clients: make(map[HWAddr]client),
	}
}

// Capacity returns the total number of addresses across pools.
func (s *Server) Capacity() uint64 { return s.pool.Size() }

// candidate picks the address the server would offer hw, whose record
// is c: the address of its lease, current or (when sticky) released, if
// no other client holds it, otherwise a fresh one.
//
//lint:hotpath
func (s *Server) candidate(hw HWAddr, c *client) (netip.Addr, error) {
	if c.leased {
		a := netip.AddrFrom4(c.addr)
		if cur, held := s.pool.Holder(a); !held || cur == hw {
			return a, nil
		}
	}
	return s.pool.Next()
}

// bind leases a to hw, whose record is c, makes hw its holder, and
// drops hw's offer, which the lease answers.
//
//lint:hotpath
func (s *Server) bind(hw HWAddr, c *client, a netip.Addr) {
	c.addr, c.leased, c.offered = a.As4(), true, false
	s.clients[hw] = *c
	s.pool.Hold(a, hw)
}

// release frees hw's address, if hw holds it: a client whose remembered
// address another client has since taken frees nothing. A sticky server
// keeps the lease, to re-offer its address.
//
//lint:hotpath
func (s *Server) release(hw HWAddr, c *client) {
	if !c.leased {
		return
	}
	s.pool.Free(netip.AddrFrom4(c.addr), hw)
	if !s.cfg.Sticky {
		c.leased = false
		s.clients[hw] = *c
	}
}

// Handle runs one request through the server state machine and returns the
// reply, or nil for a Release, which elicits none; any other message
// type is an error. The reply belongs to the server until its next call:
// read it, or copy it, before handling another message.
func (s *Server) Handle(req *Message) (*Message, error) {
	c := s.clients[req.CHAddr]
	switch req.Type() {
	case Discover:
		a, err := s.candidate(req.CHAddr, &c)
		if err != nil {
			return nil, err
		}
		c.offer, c.offered = a.As4(), true
		s.clients[req.CHAddr] = c
		rep := s.reply(Offer, req)
		rep.YIAddr = a
		s.setTimes(rep)
		return rep, nil

	case Request:
		want, ok := req.AddrOption(OptRequestedIP)
		if !ok || !want.IsValid() || want == netip.IPv4Unspecified() {
			return s.reply(NAK, req), nil
		}
		// The server is authoritative: it only ACKs the address it
		// offered to this client or has leased to it; anything else
		// NAKs, forcing re-discovery.
		offered := c.offered && netip.AddrFrom4(c.offer) == want ||
			c.leased && netip.AddrFrom4(c.addr) == want
		if !offered {
			return s.reply(NAK, req), nil
		}
		if cur, held := s.pool.Holder(want); held && cur != req.CHAddr {
			return s.reply(NAK, req), nil
		}
		s.bind(req.CHAddr, &c, want)
		rep := s.reply(ACK, req)
		rep.YIAddr = want
		s.setTimes(rep)
		return rep, nil

	case Release:
		s.release(req.CHAddr, &c)
		return nil, nil

	default:
		return nil, fmt.Errorf("dhcp4: unhandled message type %v", req.Type())
	}
}

// reply builds a reply of type mt to req in the server's reply message:
// giaddr is echoed so relays can route it (RFC 2131 §4.1), and it
// carries the server ID.
//
//lint:hotpath
func (s *Server) reply(mt MessageType, req *Message) *Message {
	rep := &s.rep
	rep.Reset(mt, req.XID, req.CHAddr)
	rep.GIAddr = req.GIAddr
	rep.SetAddrOption(OptServerID, s.cfg.ServerID)
	return rep
}

// setTimes attaches the lease time plus the RFC 2131 renewal (T1) and
// rebinding (T2) timers at their default positions: 50% and 87.5% of the
// lease.
//
//lint:hotpath
func (s *Server) setTimes(rep *Message) {
	rep.SetU32Option(OptLeaseTime, s.cfg.LeaseSeconds)
	rep.SetU32Option(OptRenewalTime, s.cfg.LeaseSeconds/2)
	rep.SetU32Option(OptRebindingTime, s.cfg.LeaseSeconds*7/8)
}

// Forget releases hw's lease and drops the server's record of hw, so
// unlike after Release the server no longer re-offers hw that address.
// The address goes on top of the pool's LIFO free list, though: with
// nothing freed in between, hw's next discovery draws it straight back.
// The renumbering failover policy moves its clients by forgetting all
// of them before any reacquires.
func (s *Server) Forget(hw HWAddr) {
	if c := s.clients[hw]; c.leased {
		s.pool.Free(netip.AddrFrom4(c.addr), hw)
	}
	delete(s.clients, hw)
}

// Acquire performs the full DORA exchange for hw and returns the resulting
// lease. It is the programmatic entry point serve-bng's engines use; it
// builds both requests in one message the server keeps.
func (s *Server) Acquire(hw HWAddr, xid uint32) (Lease, error) {
	req := &s.acq
	req.Reset(Discover, xid, hw)
	offer, err := s.Handle(req)
	if err != nil {
		return Lease{}, err
	}
	req.Reset(Request, xid, hw)
	req.SetAddrOption(OptRequestedIP, offer.YIAddr)
	ack, err := s.Handle(req)
	if err != nil {
		return Lease{}, err
	}
	if ack.Type() != ACK {
		return Lease{}, fmt.Errorf("dhcp4: acquire got %v", ack.Type())
	}
	lease, _ := ack.U32Option(OptLeaseTime)
	return Lease{Addr: ack.YIAddr, Expiry: s.clock.Now() + int64(lease)}, nil
}
