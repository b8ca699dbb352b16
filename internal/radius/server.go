package radius

import (
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/addrpool"
	"dynamips/internal/netutil"
)

// ErrPoolExhausted is returned when no address is available for a session.
var ErrPoolExhausted = errors.New("radius: address pool exhausted")

// stride spreads allocations across both pools: the n-th fresh
// allocation uses offset (n*stride) mod poolsize instead of n. Real
// pools hand out addresses scattered over their range; sequential
// allocation would concentrate all active addresses in the lowest /24.
const stride = 257

// ServerConfig configures the session/assignment server.
type ServerConfig struct {
	// Pools4 are IPv4 ranges for Framed-IP-Address assignment.
	Pools4 []netip.Prefix
	// Pools6 are IPv6 blocks for Delegated-IPv6-Prefix assignment;
	// nil disables IPv6 (a non-dual-stack profile).
	Pools6 []netip.Prefix
	// DelegatedLen6 is the delegated IPv6 prefix length.
	DelegatedLen6 int
	// SessionTimeout (seconds) is returned in Access-Accept; BRAS
	// equipment disconnects the session after this, and the reconnect
	// draws a fresh address (the paper's periodic renumbering).
	SessionTimeout uint32
}

// secret is every server's shared secret: its replies, and the
// dynamic-authorization requests it answers, are authenticated with it.
var secret = []byte("dynamips")

// Session is one subscriber session: the addresses it holds. The server
// records it in its user's slot, and its timeout is the server's
// SessionTimeout.
type Session struct {
	Addr4   netip.Addr
	Prefix6 netip.Prefix
}

// slot is a user's entry in the session table: its session's address
// and the first 64 bits of its delegation (a delegation is at most /64
// long), as plain values. So the table is under a third the size of a
// []Session, and the collector does not scan it.
type slot struct {
	p6   uint64
	a4   [4]byte
	live bool
}

// replayWindowSec is how long a duplicate Access-Request — same
// Identifier and Request Authenticator, i.e. a client retransmission —
// is answered from the duplicate cache instead of allocating again
// (RFC 5080 §2.2.2 duplicate detection).
const replayWindowSec = 30

// replayKey identifies a request for duplicate detection. The
// Identifier alone is too narrow (it wraps at 256 across subscribers);
// Identifier plus Request Authenticator is what RFC 5080 prescribes.
type replayKey struct {
	id   byte
	auth [16]byte
}

// replayEntry is one cached first-seen request: its key, the second it
// arrived, and the reply, which the entry owns.
type replayEntry struct {
	key   replayKey
	at    int64
	reply Packet
}

// grantLen is the longest reply's attribute bytes: a grant's
// Framed-IP-Address and Session-Timeout (6 each) and a Delegated-IPv6-
// Prefix of at most /64 (4+8). Each ring entry's reply buffer is sized
// to it once.
const grantLen = 6 + 6 + 4 + 8

// ServerStats are a server's lifetime request totals. Plain sums: they
// aggregate commutatively across servers into the per-AS fault counters
// the observability layer reports.
type ServerStats struct {
	// AccessRequests counts first-seen Access-Requests handled;
	// ReplayHits counts retransmissions answered from the RFC 5080
	// duplicate cache instead of allocating again.
	AccessRequests, ReplayHits int64
	// Rejects counts Access-Reject replies (bad user or exhausted pool).
	Rejects int64
	// CoARequests and Disconnects count first-seen RFC 5176 CoA-Requests
	// and Disconnect-Requests; DynauthNAKs counts the NAK replies among
	// them (unknown session, missing attribute, exhausted pool).
	CoARequests, Disconnects, DynauthNAKs int64
}

// Add accumulates o into s.
func (s *ServerStats) Add(o ServerStats) {
	s.AccessRequests += o.AccessRequests
	s.ReplayHits += o.ReplayHits
	s.Rejects += o.Rejects
	s.CoARequests += o.CoARequests
	s.Disconnects += o.Disconnects
	s.DynauthNAKs += o.DynauthNAKs
}

// Server allocates per-session addresses RADIUS-style: every new session
// draws the next free address; nothing is remembered once a session stops.
// It is not safe for concurrent use.
//
// Each user the server has seen has an id, handed out on first sight and
// never reused: the index of its slot in sessions. The User-Name map is
// the wire edge; programmatic callers resolve a user once (User) and
// pass the id.
type Server struct {
	cfg      ServerConfig
	stats    ServerStats
	users    map[string]int32
	sessions []slot // by user id
	active   int    // live sessions

	// The duplicate cache is a ring of entries held by value, in
	// insertion order: entry number q, for head <= q < tail, is
	// ring[q&(len(ring)-1)], and replay maps each cached request to its
	// entry's number.
	replay     map[replayKey]uint64
	ring       []replayEntry
	head, tail uint64

	// Each held unit's holder is the id of the user whose session it is
	// assigned to; pool6 is nil when the server delegates no IPv6.
	pool4 *addrpool.Pool[netip.Addr, int32]
	pool6 *addrpool.Pool[netip.Prefix, int32]
}

// NewServer builds a Server, panicking on configuration bugs.
func NewServer(cfg ServerConfig) *Server {
	if cfg.SessionTimeout == 0 {
		panic("radius: zero session timeout")
	}
	pool4, err := addrpool.Addrs[int32](cfg.Pools4, stride, ErrPoolExhausted)
	if err != nil {
		panic("radius: " + err.Error())
	}
	var pool6 *addrpool.Pool[netip.Prefix, int32]
	if len(cfg.Pools6) > 0 {
		if pool6, err = addrpool.Prefixes[int32](cfg.Pools6, cfg.DelegatedLen6, stride, ErrPoolExhausted); err != nil {
			panic("radius: " + err.Error())
		}
	}
	return &Server{
		cfg:    cfg,
		users:  make(map[string]int32),
		replay: make(map[replayKey]uint64),
		pool4:  pool4,
		pool6:  pool6,
	}
}

// User returns the named user's id, registering the user on first
// sight.
func (s *Server) User(name string) int32 {
	id, ok := s.users[name]
	if !ok {
		id = int32(len(s.sessions))
		s.users[name] = id
		s.sessions = append(s.sessions, slot{})
	}
	return id
}

// live returns the id of the named user, if it has a live session.
//
//lint:hotpath
func (s *Server) live(name []byte) (int32, bool) {
	id, ok := s.users[string(name)]
	return id, ok && s.sessions[id].live
}

// session returns user id's session, the zero Session if it has none.
func (s *Server) session(id int32) Session {
	sl := s.sessions[id]
	if !sl.live {
		return Session{}
	}
	sess := Session{Addr4: netip.AddrFrom4(sl.a4)}
	if s.pool6 != nil {
		sess.Prefix6 = netip.PrefixFrom(netutil.AddrFrom128(sl.p6, 0), s.cfg.DelegatedLen6)
	}
	return sess
}

// ActiveSessions returns the number of live sessions.
func (s *Server) ActiveSessions() int { return s.active }

// Stats returns the server's accumulated request totals.
func (s *Server) Stats() ServerStats { return s.stats }

// Secret returns the shared secret replies are authenticated with.
func (s *Server) Secret() []byte { return secret }

// StartSession authenticates user id and allocates session addresses.
// An existing session for the user is torn down, but only after the new
// allocation: a reconnecting subscriber therefore draws fresh addresses
// rather than instantly recycling its own (the RADIUS behavior behind
// §2.2's "even very short CPE outages or reboots can result in
// assignment changes").
//
//lint:hotpath every renumber, reattach, flap and CoA of a RADIUS subscriber
func (s *Server) StartSession(id int32) (Session, error) {
	a4, err := s.pool4.Next()
	if err != nil {
		return Session{}, err
	}
	sess := Session{Addr4: a4}
	// Next has consumed a4, so it is held even when the delegation
	// below fails: only its holder can free it back to the pool.
	s.pool4.Hold(a4, id)
	if s.pool6 != nil {
		p6, err := s.pool6.Next()
		if err != nil {
			s.pool4.Free(a4, id)
			return Session{}, err
		}
		sess.Prefix6 = p6
		s.pool6.Hold(p6, id)
	}
	s.StopSession(id)
	hi6, _ := netutil.U128(sess.Prefix6.Addr())
	s.sessions[id] = slot{p6: hi6, a4: a4.As4(), live: true}
	s.active++
	return sess, nil
}

// StopSession ends user id's session, if it has one, freeing its
// addresses.
//
//lint:hotpath every session end of a RADIUS subscriber
func (s *Server) StopSession(id int32) {
	if !s.sessions[id].live {
		return
	}
	sess := s.session(id)
	s.pool4.Free(sess.Addr4, id)
	if s.pool6 != nil {
		s.pool6.Free(sess.Prefix6, id)
	}
	s.sessions[id] = slot{}
	s.active--
}

// handleAccess authenticates and allocates for one first-seen
// Access-Request, filling rep with Access-Accept or Access-Reject.
func (s *Server) handleAccess(req, rep *Packet) {
	user, ok := req.Get(AttrUserName)
	if !ok || len(user) == 0 {
		rep.Reset(AccessReject, req.Identifier)
		return
	}
	id, ok := s.users[string(user)]
	if !ok {
		id = s.User(string(user))
	}
	sess, err := s.StartSession(id)
	if err != nil {
		rep.Reset(AccessReject, req.Identifier)
		return
	}
	s.grant(rep, AccessAccept, req.Identifier, sess)
}

// grant fills rep with an Access-Accept or CoA-ACK carrying sess's
// addresses and the configured Session-Timeout.
//
//lint:hotpath
func (s *Server) grant(rep *Packet, code Code, id byte, sess Session) {
	rep.Reset(code, id)
	rep.AddAddr4(AttrFramedIPAddress, sess.Addr4)
	rep.AddU32(AttrSessionTimeout, s.cfg.SessionTimeout)
	if sess.Prefix6.IsValid() {
		rep.AddPrefix6(AttrDelegatedIPv6Prefix, sess.Prefix6)
	}
}

// entry returns ring entry number q.
//
//lint:hotpath
func (s *Server) entry(q uint64) *replayEntry { return &s.ring[q&uint64(len(s.ring)-1)] }

// remember takes a ring entry for a first-seen request arriving at now,
// for RFC 5080 §2.2.2 duplicate detection, and returns its reply for the
// caller to fill. Entries past the window expire first, oldest first;
// the ring grows only when every entry is still inside the window.
//
//lint:hotpath
func (s *Server) remember(key replayKey, now int64) *Packet {
	for s.head < s.tail {
		old := s.entry(s.head)
		if now-old.at < replayWindowSec {
			break
		}
		// A key re-inserted after expiry owns a newer entry; only
		// drop the mapping the expiring entry still owns.
		if q, ok := s.replay[old.key]; ok && q == s.head {
			delete(s.replay, old.key)
		}
		s.head++
	}
	if s.tail-s.head == uint64(len(s.ring)) {
		ring := make([]replayEntry, max(2*len(s.ring), 16))
		for q := s.head; q < s.tail; q++ {
			ring[q&uint64(len(ring)-1)] = *s.entry(q)
		}
		// The entries the ring gains cut their reply buffers from one
		// array.
		buf := make([]byte, (len(ring)-len(s.ring))*grantLen)
		for i := range ring {
			if ring[i].reply.attrs == nil {
				ring[i].reply.attrs, buf = buf[:0:grantLen], buf[grantLen:]
			}
		}
		s.ring = ring
	}
	e := s.entry(s.tail)
	e.key, e.at = key, now
	s.replay[key] = s.tail
	s.tail++
	return &e.reply
}

// Handle processes one Access-Request, CoA-Request or
// Disconnect-Request and returns the reply; any other code is an error.
// now is the current time in seconds. The reply belongs to the server
// until its next call: read it, or copy it, before handling another
// packet.
//
// A retransmitted request — same Identifier and Request Authenticator
// within the duplicate window — returns the cached reply without
// touching session state: a retransmitted Access-Request keeps the
// address the first transmission allocated, and a retransmitted
// CoA-Request does not renumber the subscriber twice (RFC 5176 inherits
// RFC 5080's duplicate detection).
func (s *Server) Handle(req *Packet, now int64) (*Packet, error) {
	switch req.Code {
	case AccessRequest, CoARequest, DisconnectRequest:
		key := replayKey{id: req.Identifier, auth: req.Authenticator}
		if q, ok := s.replay[key]; ok {
			if e := s.entry(q); now-e.at < replayWindowSec {
				s.stats.ReplayHits++
				return &e.reply, nil
			}
		}
		rep := s.remember(key, now)
		switch req.Code {
		case AccessRequest:
			s.stats.AccessRequests++
			s.handleAccess(req, rep)
			if rep.Code == AccessReject {
				s.stats.Rejects++
			}
		case CoARequest:
			s.stats.CoARequests++
			s.handleCoA(req, rep)
		case DisconnectRequest:
			s.stats.Disconnects++
			s.handleDisconnect(req, rep)
		}
		return rep, nil

	default:
		return nil, fmt.Errorf("radius: unhandled code %v", req.Code)
	}
}
