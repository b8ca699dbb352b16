package dhcp4

import (
	"container/heap"
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

	// pool walks the pools sequentially (stride 1); each held address's
	// holder is the lease bound to it.
	pool   *addrpool.Pool[netip.Addr, *Lease]
	byHW   map[HWAddr]*Lease
	offers map[HWAddr]netip.Addr
	expiry leaseHeap
}

// NewServer builds a Server. It panics on an empty pool set, zero lease, or
// a non-IPv4 pool, which are configuration bugs.
func NewServer(cfg ServerConfig, clock Clock) *Server {
	if cfg.LeaseSeconds == 0 {
		panic("dhcp4: zero lease duration")
	}
	pool, err := addrpool.Addrs[*Lease](cfg.Pools, 1, ErrPoolExhausted)
	if err != nil {
		panic("dhcp4: " + err.Error())
	}
	if !cfg.ServerID.IsValid() {
		cfg.ServerID = netip.MustParseAddr("192.0.2.1")
	}
	return &Server{
		cfg:    cfg,
		clock:  clock,
		pool:   pool,
		byHW:   make(map[HWAddr]*Lease),
		offers: make(map[HWAddr]netip.Addr),
	}
}

// Capacity returns the total number of addresses across pools.
func (s *Server) Capacity() uint64 { return s.pool.Size() }

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
// addresses to the free list. A queued lease no longer holding its
// address was renewed, released or re-bound since being queued.
func (s *Server) reclaim(now int64) {
	for len(s.expiry) > 0 && s.expiry[0].Expiry <= now {
		l := heap.Pop(&s.expiry).(*Lease)
		if s.pool.Free(l.Addr, l) && !s.cfg.Sticky {
			delete(s.byHW, l.HW)
		}
	}
}

func (s *Server) bind(hw HWAddr, a netip.Addr, now int64) *Lease {
	l := &Lease{Addr: a, HW: hw, Expiry: now + int64(s.cfg.LeaseSeconds)}
	s.byHW[hw] = l
	s.pool.Hold(a, l)
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
			if cur, held := s.pool.Holder(l.Addr); !held || cur == l {
				return l.Addr, nil
			}
		}
	}
	return s.pool.Next()
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
		if cur, held := s.pool.Holder(want); held && cur.HW != req.CHAddr && cur.Expiry > now {
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
		// A client whose remembered address another client has since
		// taken frees nothing: only the address's holder can free it.
		if l, ok := s.byHW[req.CHAddr]; ok {
			s.pool.Free(l.Addr, l)
			if !s.cfg.Sticky {
				delete(s.byHW, req.CHAddr)
			} else {
				// Remembered, but free for others. A fresh lease, so the
				// queued one's expiry (its heap key) never changes.
				s.byHW[req.CHAddr] = &Lease{Addr: l.Addr, HW: l.HW, Expiry: now}
			}
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
		s.pool.Free(l.Addr, l)
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
