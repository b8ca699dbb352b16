package dhcp4

import (
	"container/heap"
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/netutil"
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
	// Sticky controls whether the server remembers expired bindings and
	// re-offers the same address to a returning client (typical DHCP
	// server behavior). When false the server forgets bindings at
	// expiry, modeling RADIUS-style assignment where reconnecting after
	// the session times out yields a fresh address (§2.2).
	Sticky bool
	// ServerID is the server identifier placed in replies.
	ServerID netip.Addr
}

// Lease is one active binding.
type Lease struct {
	Addr   netip.Addr
	HW     HWAddr
	Expiry int64
}

// Server implements the DHCP state machine over a set of address pools.
// It is not safe for concurrent use; callers serialize access (each
// serve-bng shard owns its servers).
type Server struct {
	cfg   ServerConfig
	clock Clock

	byHW   map[HWAddr]*Lease
	byAddr map[netip.Addr]*Lease
	offers map[HWAddr]netip.Addr
	expiry leaseHeap
	cursor int // pool index
	offset uint64
	freed  []netip.Addr // released addresses, reused LIFO
	total  uint64       // total pool capacity
}

// NewServer builds a Server. It panics on an empty pool set, zero lease, or
// a non-IPv4 pool, which are configuration bugs.
func NewServer(cfg ServerConfig, clock Clock) *Server {
	if len(cfg.Pools) == 0 {
		panic("dhcp4: no pools configured")
	}
	if cfg.LeaseSeconds == 0 {
		panic("dhcp4: zero lease duration")
	}
	var total uint64
	for _, p := range cfg.Pools {
		if !p.Addr().Unmap().Is4() {
			panic(fmt.Sprintf("dhcp4: non-IPv4 pool %v", p))
		}
		total += 1 << uint(32-p.Bits())
	}
	if !cfg.ServerID.IsValid() {
		cfg.ServerID = netip.MustParseAddr("192.0.2.1")
	}
	return &Server{
		cfg:    cfg,
		clock:  clock,
		byHW:   make(map[HWAddr]*Lease),
		byAddr: make(map[netip.Addr]*Lease),
		offers: make(map[HWAddr]netip.Addr),
		total:  total,
	}
}

// Capacity returns the total number of addresses across pools.
func (s *Server) Capacity() uint64 { return s.total }

// ActiveLeases returns the number of unexpired bindings.
func (s *Server) ActiveLeases() int {
	now := s.clock.Now()
	n := 0
	for _, l := range s.byHW {
		if l.Expiry > now {
			n++
		}
	}
	return n
}

// reclaim removes expired bindings whose time has passed, returning their
// addresses to the free list.
func (s *Server) reclaim(now int64) {
	for len(s.expiry) > 0 && s.expiry[0].Expiry <= now {
		l := heap.Pop(&s.expiry).(*Lease)
		cur, ok := s.byAddr[l.Addr]
		if !ok || cur != l || cur.Expiry > now {
			continue // renewed or re-bound since being queued
		}
		delete(s.byAddr, l.Addr)
		if !s.cfg.Sticky {
			delete(s.byHW, l.HW)
		}
		s.freed = append(s.freed, l.Addr)
	}
}

// nextFree returns an unbound address.
func (s *Server) nextFree() (netip.Addr, error) {
	for len(s.freed) > 0 {
		a := s.freed[len(s.freed)-1]
		s.freed = s.freed[:len(s.freed)-1]
		if _, bound := s.byAddr[a]; !bound {
			return a, nil
		}
	}
	for s.cursor < len(s.cfg.Pools) {
		p := s.cfg.Pools[s.cursor]
		size := uint64(1) << uint(32-p.Bits())
		for s.offset < size {
			a, err := netutil.HostAddr(p, s.offset)
			s.offset++
			if err != nil {
				return netip.Addr{}, err
			}
			if _, bound := s.byAddr[a]; !bound {
				return a, nil
			}
		}
		s.cursor++
		s.offset = 0
	}
	return netip.Addr{}, ErrPoolExhausted
}

func (s *Server) bind(hw HWAddr, a netip.Addr, now int64) *Lease {
	l := &Lease{Addr: a, HW: hw, Expiry: now + int64(s.cfg.LeaseSeconds)}
	s.byHW[hw] = l
	s.byAddr[a] = l
	heap.Push(&s.expiry, l)
	return l
}

// candidate picks the address the server would offer hw: its current or
// remembered binding when sticky and still free, otherwise a fresh one.
func (s *Server) candidate(hw HWAddr, now int64) (netip.Addr, error) {
	if l, ok := s.byHW[hw]; ok {
		if l.Expiry > now {
			return l.Addr, nil
		}
		if s.cfg.Sticky {
			if cur, bound := s.byAddr[l.Addr]; !bound || cur == l {
				return l.Addr, nil
			}
		}
	}
	return s.nextFree()
}

// Handle runs one request through the server state machine and returns the
// reply, or nil for messages that elicit none (e.g. RELEASE).
func (s *Server) Handle(req *Message) (*Message, error) {
	now := s.clock.Now()
	s.reclaim(now)
	switch req.Type() {
	case Discover:
		a, err := s.candidate(req.CHAddr, now)
		if err != nil {
			return nil, err
		}
		s.offers[req.CHAddr] = a
		rep := NewMessage(Offer, req.XID, req.CHAddr)
		rep.YIAddr = a
		rep.GIAddr = req.GIAddr // echoed so relays can route the reply (RFC 2131 §4.1)
		rep.SetAddrOption(OptServerID, s.cfg.ServerID)
		s.setTimes(rep)
		return rep, nil

	case Request:
		want, ok := req.AddrOption(OptRequestedIP)
		if !ok {
			want = req.CIAddr // renewal: client puts its address in ciaddr
		}
		if !want.IsValid() || want == netip.IPv4Unspecified() {
			return s.nak(req), nil
		}
		// The server is authoritative: it only ACKs addresses it offered
		// to this client or currently has bound to it; anything else NAKs,
		// forcing re-discovery.
		offered := s.offers[req.CHAddr] == want
		if l, bound := s.byHW[req.CHAddr]; bound && l.Addr == want {
			offered = true
		}
		if !offered {
			return s.nak(req), nil
		}
		if cur, bound := s.byAddr[want]; bound && cur.HW != req.CHAddr && cur.Expiry > now {
			return s.nak(req), nil
		}
		delete(s.offers, req.CHAddr)
		l := s.bind(req.CHAddr, want, now)
		rep := NewMessage(ACK, req.XID, req.CHAddr)
		rep.YIAddr = l.Addr
		rep.GIAddr = req.GIAddr
		rep.SetAddrOption(OptServerID, s.cfg.ServerID)
		s.setTimes(rep)
		return rep, nil

	case Release:
		if l, ok := s.byHW[req.CHAddr]; ok {
			delete(s.byAddr, l.Addr)
			if !s.cfg.Sticky {
				delete(s.byHW, req.CHAddr)
			} else {
				l.Expiry = now // remembered, but free for others
			}
			s.freed = append(s.freed, l.Addr)
		}
		return nil, nil

	default:
		return nil, fmt.Errorf("dhcp4: unhandled message type %v", req.Type())
	}
}

// setTimes attaches the lease time plus the RFC 2131 renewal (T1) and
// rebinding (T2) timers at their default positions: 50% and 87.5% of the
// lease.
func (s *Server) setTimes(rep *Message) {
	rep.SetU32Option(OptLeaseTime, s.cfg.LeaseSeconds)
	rep.SetU32Option(OptRenewalTime, s.cfg.LeaseSeconds/2)
	rep.SetU32Option(OptRebindingTime, s.cfg.LeaseSeconds*7/8)
}

func (s *Server) nak(req *Message) *Message {
	rep := NewMessage(NAK, req.XID, req.CHAddr)
	rep.GIAddr = req.GIAddr
	rep.SetAddrOption(OptServerID, s.cfg.ServerID)
	return rep
}

// Forget releases hw's binding AND drops the sticky memory of it, so the
// client's next discovery draws a fresh address. This is the
// operator-forced renumbering a failover with the renumbering recovery
// policy applies: unlike Release, a sticky server will not re-offer the
// same address.
func (s *Server) Forget(hw HWAddr) {
	if l, ok := s.byHW[hw]; ok {
		delete(s.byHW, hw)
		// An expired sticky binding may already have been reclaimed (or
		// its address re-bound); only free the address this lease still owns.
		if cur, bound := s.byAddr[l.Addr]; bound && cur == l {
			delete(s.byAddr, l.Addr)
			s.freed = append(s.freed, l.Addr)
		}
	}
	delete(s.offers, hw)
}

// Acquire performs the full DORA exchange for hw and returns the resulting
// lease. It is the programmatic entry point serve-bng's engines use.
func (s *Server) Acquire(hw HWAddr, xid uint32) (Lease, error) {
	offer, err := s.Handle(NewMessage(Discover, xid, hw))
	if err != nil {
		return Lease{}, err
	}
	req := NewMessage(Request, xid, hw)
	req.SetAddrOption(OptRequestedIP, offer.YIAddr)
	ack, err := s.Handle(req)
	if err != nil {
		return Lease{}, err
	}
	if ack.Type() != ACK {
		return Lease{}, fmt.Errorf("dhcp4: acquire got %v", ack.Type())
	}
	lease, _ := ack.U32Option(OptLeaseTime)
	return Lease{Addr: ack.YIAddr, HW: hw, Expiry: s.clock.Now() + int64(lease)}, nil
}

// leaseHeap orders leases by expiry for lazy reclamation.
type leaseHeap []*Lease

func (h leaseHeap) Len() int            { return len(h) }
func (h leaseHeap) Less(i, j int) bool  { return h[i].Expiry < h[j].Expiry }
func (h leaseHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *leaseHeap) Push(x interface{}) { *h = append(*h, x.(*Lease)) }
func (h *leaseHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
