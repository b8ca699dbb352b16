package radius

import (
	"errors"
	"fmt"
	"net/netip"

	"dynamips/internal/netutil"
)

// ErrPoolExhausted is returned when no address is available for a session.
var ErrPoolExhausted = errors.New("radius: address pool exhausted")

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
	// Stride spreads allocations across the pool: the n-th fresh
	// allocation uses offset (n*Stride) mod poolsize instead of n. Real
	// pools hand out addresses scattered over their range; sequential
	// allocation would concentrate all active addresses in the lowest
	// /24. Even strides are rounded up to stay coprime with
	// power-of-two pool sizes. Zero means 1 (sequential).
	Stride uint64
	// Secret is the shared secret for response authenticators.
	Secret []byte
}

// Session is one active subscriber session.
type Session struct {
	User    string
	Addr4   netip.Addr
	Prefix6 netip.Prefix
	Start   int64
	Timeout uint32
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

type replayEntry struct {
	key   replayKey
	reply *Packet
	at    int64
}

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
type Server struct {
	cfg      ServerConfig
	stats    ServerStats
	sessions map[string]*Session

	replay  map[replayKey]*replayEntry
	replayQ []*replayEntry // insertion order, for window pruning

	cursor4 int
	offset4 uint64
	freed4  []netip.Addr
	used4   map[netip.Addr]bool

	cursor6 int
	offset6 uint64
	freed6  []netip.Prefix
	used6   map[netip.Prefix]bool
}

// NewServer builds a Server, panicking on configuration bugs.
func NewServer(cfg ServerConfig) *Server {
	if len(cfg.Pools4) == 0 {
		panic("radius: no IPv4 pools configured")
	}
	if cfg.SessionTimeout == 0 {
		panic("radius: zero session timeout")
	}
	for _, p := range cfg.Pools4 {
		if !p.Addr().Unmap().Is4() {
			panic(fmt.Sprintf("radius: non-IPv4 pool %v", p))
		}
	}
	for _, p := range cfg.Pools6 {
		if !p.Addr().Is6() || p.Addr().Unmap().Is4() {
			panic(fmt.Sprintf("radius: non-IPv6 pool %v", p))
		}
		if cfg.DelegatedLen6 < p.Bits() || cfg.DelegatedLen6 > 64 {
			panic(fmt.Sprintf("radius: delegated length /%d incompatible with pool %v", cfg.DelegatedLen6, p))
		}
	}
	if len(cfg.Secret) == 0 {
		cfg.Secret = []byte("dynamips")
	}
	if cfg.Stride == 0 {
		cfg.Stride = 1
	}
	if cfg.Stride%2 == 0 {
		cfg.Stride++
	}
	return &Server{
		cfg:      cfg,
		sessions: make(map[string]*Session),
		replay:   make(map[replayKey]*replayEntry),
		used4:    make(map[netip.Addr]bool),
		used6:    make(map[netip.Prefix]bool),
	}
}

// ActiveSessions returns the number of live sessions.
func (s *Server) ActiveSessions() int { return len(s.sessions) }

// Stats returns the server's accumulated request totals.
func (s *Server) Stats() ServerStats { return s.stats }

// Secret returns the shared secret replies are authenticated with.
func (s *Server) Secret() []byte { return s.cfg.Secret }

func (s *Server) nextFree4() (netip.Addr, error) {
	for len(s.freed4) > 0 {
		a := s.freed4[len(s.freed4)-1]
		s.freed4 = s.freed4[:len(s.freed4)-1]
		if !s.used4[a] {
			return a, nil
		}
	}
	for s.cursor4 < len(s.cfg.Pools4) {
		p := s.cfg.Pools4[s.cursor4]
		size := uint64(1) << uint(32-p.Bits())
		for s.offset4 < size {
			a, err := netutil.HostAddr(p, (s.offset4*s.cfg.Stride)%size)
			s.offset4++
			if err != nil {
				return netip.Addr{}, err
			}
			if !s.used4[a] {
				return a, nil
			}
		}
		s.cursor4++
		s.offset4 = 0
	}
	return netip.Addr{}, ErrPoolExhausted
}

func (s *Server) nextFree6() (netip.Prefix, error) {
	for len(s.freed6) > 0 {
		p := s.freed6[len(s.freed6)-1]
		s.freed6 = s.freed6[:len(s.freed6)-1]
		if !s.used6[p] {
			return p, nil
		}
	}
	for s.cursor6 < len(s.cfg.Pools6) {
		pool := s.cfg.Pools6[s.cursor6]
		size := uint64(1) << uint(s.cfg.DelegatedLen6-pool.Bits())
		for s.offset6 < size {
			p, err := netutil.SubPrefix(pool, s.cfg.DelegatedLen6, (s.offset6*s.cfg.Stride)%size)
			s.offset6++
			if err != nil {
				return netip.Prefix{}, err
			}
			if !s.used6[p] {
				return p, nil
			}
		}
		s.cursor6++
		s.offset6 = 0
	}
	return netip.Prefix{}, ErrPoolExhausted
}

// StartSession authenticates user and allocates session addresses. An
// existing session for the user is torn down, but only after the new
// allocation: a reconnecting subscriber therefore draws fresh addresses
// rather than instantly recycling its own (the RADIUS behavior behind
// §2.2's "even very short CPE outages or reboots can result in
// assignment changes").
func (s *Server) StartSession(user string, now int64) (*Session, error) {
	a4, err := s.nextFree4()
	if err != nil {
		return nil, err
	}
	sess := &Session{User: user, Addr4: a4, Start: now, Timeout: s.cfg.SessionTimeout}
	s.used4[a4] = true
	if len(s.cfg.Pools6) > 0 {
		p6, err := s.nextFree6()
		if err != nil {
			s.used4[a4] = false
			s.freed4 = append(s.freed4, a4)
			return nil, err
		}
		sess.Prefix6 = p6
		s.used6[p6] = true
	}
	if old, ok := s.sessions[user]; ok {
		s.stop(old)
	}
	s.sessions[user] = sess
	return sess, nil
}

func (s *Server) stop(sess *Session) {
	delete(s.sessions, sess.User)
	if sess.Addr4.IsValid() {
		s.used4[sess.Addr4] = false
		s.freed4 = append(s.freed4, sess.Addr4)
	}
	if sess.Prefix6.IsValid() {
		s.used6[sess.Prefix6] = false
		s.freed6 = append(s.freed6, sess.Prefix6)
	}
}

// StopSession ends a user's session, freeing its addresses.
func (s *Server) StopSession(user string) {
	if sess, ok := s.sessions[user]; ok {
		s.stop(sess)
	}
}

// handleAccess authenticates and allocates for one first-seen
// Access-Request, returning Access-Accept or Access-Reject.
func (s *Server) handleAccess(req *Packet, now int64) *Packet {
	user, ok := req.GetString(AttrUserName)
	if !ok || user == "" {
		return New(AccessReject, req.Identifier)
	}
	sess, err := s.StartSession(user, now)
	if err != nil {
		return New(AccessReject, req.Identifier)
	}
	rep := New(AccessAccept, req.Identifier)
	rep.AddAddr4(AttrFramedIPAddress, sess.Addr4)
	rep.AddU32(AttrSessionTimeout, sess.Timeout)
	if sess.Prefix6.IsValid() {
		rep.AddPrefix6(AttrDelegatedIPv6Prefix, sess.Prefix6)
	}
	return rep
}

// cacheReply records a first-seen request's reply for RFC 5080 §2.2.2
// duplicate detection and prunes entries past the window.
func (s *Server) cacheReply(key replayKey, rep *Packet, now int64) {
	e := &replayEntry{key: key, reply: rep, at: now}
	s.replay[key] = e
	s.replayQ = append(s.replayQ, e)
	for len(s.replayQ) > 0 && now-s.replayQ[0].at >= replayWindowSec {
		old := s.replayQ[0]
		s.replayQ = s.replayQ[1:]
		// A key re-inserted after expiry owns a newer entry; only
		// drop the mapping the stale queue slot still owns.
		if s.replay[old.key] == old {
			delete(s.replay, old.key)
		}
	}
}

// Handle processes one RADIUS packet and returns the reply (nil for
// unhandled codes). now is the current time in seconds.
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
		if e, ok := s.replay[key]; ok && now-e.at < replayWindowSec {
			s.stats.ReplayHits++
			return e.reply, nil
		}
		var rep *Packet
		switch req.Code {
		case AccessRequest:
			s.stats.AccessRequests++
			rep = s.handleAccess(req, now)
			if rep.Code == AccessReject {
				s.stats.Rejects++
			}
		case CoARequest:
			s.stats.CoARequests++
			rep = s.handleCoA(req, now)
		case DisconnectRequest:
			s.stats.Disconnects++
			rep = s.handleDisconnect(req)
		}
		s.cacheReply(key, rep, now)
		return rep, nil

	case AccountingRequest:
		if st, ok := req.GetU32(AttrAcctStatusType); ok && st == AcctStop {
			if user, ok := req.GetString(AttrUserName); ok {
				s.StopSession(user)
			}
		}
		return New(AccountingResponse, req.Identifier), nil

	default:
		return nil, fmt.Errorf("radius: unhandled code %v", req.Code)
	}
}
