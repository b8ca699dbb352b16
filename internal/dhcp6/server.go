package dhcp6

import (
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/addrpool"
	"dynamips/internal/netutil"
)

// Clock supplies time in seconds; simulations drive a virtual clock.
type Clock interface {
	Now() int64
}

// ClockFunc adapts a function to the Clock interface.
type ClockFunc func() int64

// Now implements Clock.
func (f ClockFunc) Now() int64 { return f() }

// ErrPoolExhausted is returned when no delegation is available.
var ErrPoolExhausted = errors.New("dhcp6: delegation pool exhausted")

// stride spreads delegations across the pool: the n-th fresh delegation
// uses slot (n*stride) mod poolsize. Real delegation servers scatter
// assignments over the pool; sequential allocation would concentrate
// every active delegation in the lowest /48.
const stride = 2557

// ServerConfig configures a prefix-delegation server.
type ServerConfig struct {
	// Pools are the blocks delegations are carved from (e.g. a per-region
	// /40 inside the ISP's aggregate, §5.2).
	Pools []netip.Prefix
	// DelegatedLen is the delegated-prefix length handed to CPEs
	// (commonly /56 per RIPE-690; Netcologne uses /48, Kabel DE CPEs
	// request /62 — §5.3).
	DelegatedLen int
	// ValidSeconds is the delegation's valid lifetime.
	ValidSeconds uint32
}

// serverDUID identifies every server in its replies.
var serverDUID = DUIDLL([6]byte{0x02, 0, 0, 0, 0, 1})

// Binding is one delegation: Expiry is the end of the valid lifetime the
// server advertised, counted on its clock. The server never expires a
// binding itself; it holds its prefix until ReleaseBinding, Reassign,
// LoseState or Renumber.
type Binding struct {
	Prefix netip.Prefix
	Expiry int64
}

// ServerStats are a server's lifetime totals. Plain sums: they
// aggregate commutatively across delegation servers into the per-AS
// counters the observability layer reports.
type ServerStats struct {
	// Solicits/Requests count handled messages by type; Reassigns counts
	// programmatic forced renumberings of one subscriber.
	Solicits, Requests, Reassigns int64
	// NoBindings counts Request replies with StatusNoBinding — the CPE
	// must re-solicit, drawing a fresh prefix.
	NoBindings int64
	// LoseStates and Renumbers count whole-server state losses.
	LoseStates, Renumbers int64
}

// Add accumulates o into s.
func (s *ServerStats) Add(o ServerStats) {
	s.Solicits += o.Solicits
	s.Requests += o.Requests
	s.Reassigns += o.Reassigns
	s.NoBindings += o.NoBindings
	s.LoseStates += o.LoseStates
	s.Renumbers += o.Renumbers
}

// client is the server's one record of a client, kept from its first
// Solicit or Reassign until LoseState: its delegation and its offer,
// each the first 64 bits of a prefix (a delegation is at most /64 long)
// and valid while its flag is set. key is the client's DUID bytes, the
// record's map key and its prefix's holder, so the server converts a
// client's DUID only on first sight.
type client struct {
	key            string
	prefix, offer  uint64
	bound, offered bool
}

// Server delegates prefixes from its pools over IA_PD. It answers
// Solicit (with or without rapid commit) and Request; ReleaseBinding,
// Reassign, LoseState and Renumber are its programmatic edges. It is not
// safe for concurrent use.
type Server struct {
	cfg   ServerConfig
	stats ServerStats
	clock Clock

	// pool's holder of each delegated prefix is the key of the client
	// bound to it.
	pool    *addrpool.Pool[netip.Prefix, string]
	clients map[string]client

	rep Message // the reply Handle builds and returns
	acq Message // Acquire's request

	// HandleRelay's storage: the layers of the Relay-forward, the
	// client message they carry, and the Relay-reply's wire bytes.
	layers   []relayLayer
	relayed  Message
	relayOut []byte
}

// NewServer builds a Server. It panics on configuration bugs: no pools,
// a delegated length not inside the pools, or a zero lifetime.
func NewServer(cfg ServerConfig, clock Clock) *Server {
	if cfg.ValidSeconds == 0 {
		panic("dhcp6: zero valid lifetime")
	}
	pool, err := addrpool.Prefixes[string](cfg.Pools, cfg.DelegatedLen, stride, ErrPoolExhausted)
	if err != nil {
		panic("dhcp6: " + err.Error())
	}
	return &Server{
		cfg:     cfg,
		clock:   clock,
		pool:    pool,
		clients: make(map[string]client),
	}
}

// Capacity returns the number of delegations the pools can hold.
func (s *Server) Capacity() uint64 { return s.pool.Size() }

// Stats returns the server's accumulated totals.
func (s *Server) Stats() ServerStats { return s.stats }

// LoseState drops all bindings (ISP-side outage, §2.2): every CPE must
// re-solicit, receiving a fresh delegation.
func (s *Server) LoseState() {
	s.stats.LoseStates++
	s.pool.Drop()
	clear(s.clients)
}

// Renumber frees every binding and advances the allocation cursor past the
// highest delegation handed out so far, modeling administrative
// renumbering (§2.2): all subscribers move to new prefixes.
func (s *Server) Renumber() {
	s.stats.Renumbers++
	s.LoseState()
	s.pool.ForgetFreed()
}

// record returns id's record, or a new one keyed by a copy of id.
func (s *Server) record(id DUID) client {
	if c, ok := s.clients[string(id)]; ok {
		return c
	}
	return client{key: string(id)}
}

// unit returns the delegation whose first 64 bits are hi.
func (s *Server) unit(hi uint64) netip.Prefix {
	return netip.PrefixFrom(netutil.AddrFrom128(hi, 0), s.cfg.DelegatedLen)
}

// candidate is the prefix the server would offer the client whose
// record is c: the one it holds, otherwise a fresh one.
//
//lint:hotpath
func (s *Server) candidate(c *client) (netip.Prefix, error) {
	if c.bound {
		return s.unit(c.prefix), nil
	}
	return s.pool.Next()
}

// bind delegates p to c's client for a fresh lifetime and makes it the
// holder. It also drops the client's outstanding offer, which predates
// the binding: a Request naming it would rebind the client without
// freeing the prefix it now holds.
//
//lint:hotpath
func (s *Server) bind(c *client, p netip.Prefix) Binding {
	c.prefix, _ = netutil.U128(p.Addr())
	c.bound, c.offered = true, false
	s.clients[c.key] = *c
	s.pool.Hold(p, c.key)
	return Binding{Prefix: p, Expiry: s.clock.Now() + int64(s.cfg.ValidSeconds)}
}

// release frees c's client's delegation, if it holds one.
//
//lint:hotpath
func (s *Server) release(c *client) {
	if !c.bound {
		return
	}
	s.pool.Free(s.unit(c.prefix), c.key)
	c.bound = false
	s.clients[c.key] = *c
}

// reply builds a reply of type mt to req in the server's reply message,
// carrying the server ID and one IA_PD for iaid, which it returns for
// the caller to fill.
//
//lint:hotpath
func (s *Server) reply(req *Message, mt MessageType, iaid uint32) (*Message, *IAPD) {
	rep := &s.rep
	rep.Reset(mt, req.TxnID, req.ClientID)
	rep.ServerID = serverDUID
	ia := rep.addIAPD()
	ia.IAID = iaid
	return rep, ia
}

// success builds a reply delegating p, with T1 and T2 at 50% and 80% of
// the valid lifetime.
//
//lint:hotpath
func (s *Server) success(req *Message, mt MessageType, iaid uint32, p netip.Prefix) *Message {
	rep, ia := s.reply(req, mt, iaid)
	ia.T1 = s.cfg.ValidSeconds / 2
	ia.T2 = s.cfg.ValidSeconds * 4 / 5
	ia.Prefixes = append(ia.Prefixes, IAPrefix{
		Preferred: s.cfg.ValidSeconds,
		Valid:     s.cfg.ValidSeconds,
		Prefix:    p,
	})
	return rep
}

// status builds a reply whose IA_PD carries only a status code.
//
//lint:hotpath
func (s *Server) status(req *Message, mt MessageType, iaid uint32, status uint16) *Message {
	rep, ia := s.reply(req, mt, iaid)
	ia.Status, ia.StatusOK = status, true
	return rep
}

// Handle runs one Solicit or Request through the delegation state
// machine; any other message type is an error. The reply belongs to the
// server until its next call: read it, or copy it, before handling
// another message.
func (s *Server) Handle(req *Message) (*Message, error) {
	if len(req.ClientID) == 0 {
		return nil, errors.New("dhcp6: request missing client ID")
	}
	var iaid uint32
	if len(req.IAPDs) > 0 {
		iaid = req.IAPDs[0].IAID
	}
	switch req.Type {
	case Solicit:
		s.stats.Solicits++
		c := s.record(req.ClientID)
		p, err := s.candidate(&c)
		if err != nil {
			return s.status(req, Advertise, iaid, StatusNoPrefixAvail), nil
		}
		if req.RapidCommit {
			// Two-message exchange: commit immediately (§18.2.1).
			s.bind(&c, p)
			rep := s.success(req, Reply, iaid, p)
			rep.RapidCommit = true
			return rep, nil
		}
		c.offer, _ = netutil.U128(p.Addr())
		c.offered = true
		s.clients[c.key] = c
		return s.success(req, Advertise, iaid, p), nil

	case Request:
		s.stats.Requests++
		var want netip.Prefix
		if len(req.IAPDs) > 0 && len(req.IAPDs[0].Prefixes) > 0 {
			want = req.IAPDs[0].Prefixes[0].Prefix
		}
		// Only the prefix offered to this client or bound to it is
		// delegated; anything else must re-solicit.
		c := s.clients[string(req.ClientID)]
		if !(c.offered && s.unit(c.offer) == want || c.bound && s.unit(c.prefix) == want) {
			s.stats.NoBindings++
			return s.status(req, Reply, iaid, StatusNoBinding), nil
		}
		if cur, held := s.pool.Holder(want); held && cur != c.key {
			return s.status(req, Reply, iaid, StatusNoPrefixAvail), nil
		}
		s.bind(&c, want)
		return s.success(req, Reply, iaid, want), nil

	default:
		return nil, fmt.Errorf("dhcp6: unhandled message type %v", req.Type)
	}
}

// Acquire runs the Solicit/Advertise/Request/Reply exchange and returns the
// delegated prefix. It is the ISP simulator's programmatic entry point; it
// builds both requests in one message the server keeps.
func (s *Server) Acquire(client DUID, txn uint32) (Binding, error) {
	req := &s.acq
	req.Reset(Solicit, txn, client)
	adv, err := s.Handle(req)
	if err != nil {
		return Binding{}, err
	}
	if len(adv.IAPDs) == 0 || len(adv.IAPDs[0].Prefixes) == 0 {
		return Binding{}, ErrPoolExhausted
	}
	req.Reset(Request, txn, client)
	req.ServerID = adv.ServerID
	ia := req.addIAPD()
	ia.IAID = adv.IAPDs[0].IAID
	ia.Prefixes = append(ia.Prefixes, adv.IAPDs[0].Prefixes...)
	rep, err := s.Handle(req)
	if err != nil {
		return Binding{}, err
	}
	if len(rep.IAPDs) == 0 {
		return Binding{}, errors.New("dhcp6: acquire rejected without an IA_PD")
	}
	if got := &rep.IAPDs[0]; len(got.Prefixes) == 0 {
		return Binding{}, fmt.Errorf("dhcp6: acquire rejected (status %d)", got.Status)
	}
	p := rep.IAPDs[0].Prefixes[0]
	return Binding{Prefix: p.Prefix, Expiry: s.clock.Now() + int64(p.Valid)}, nil
}

// Reassign forces a fresh delegation for the client, modeling an ISP-side
// renumbering of a single subscriber (periodic renumbering, §2.2). The new
// prefix is allocated while the old binding is still held, so the client
// can never be handed its previous prefix straight back; the old prefix is
// then freed for other subscribers.
func (s *Server) Reassign(client DUID, txn uint32) (Binding, error) {
	s.stats.Reassigns++
	p, err := s.pool.Next()
	if err != nil {
		return Binding{}, err
	}
	c := s.record(client)
	s.release(&c)
	return s.bind(&c, p), nil
}

// ReleaseBinding releases the client's delegation, if it holds one.
func (s *Server) ReleaseBinding(client DUID) {
	if c, ok := s.clients[string(client)]; ok {
		s.release(&c)
	}
}
