// Dynamic Authorization Extensions (RFC 5176): CoA-Request and
// Disconnect-Request handling. These are the operator-initiated packets
// behind mid-lease renumbering — a CoA re-authorizes a live session with
// fresh address attributes, a Disconnect-Message tears it down — and
// both produce DynamIPs-visible assignment changes that no subscriber
// action explains. internal/bng's engines drive these paths for
// scenario-scheduled operator events.
package radius

// RFC 5176 §3 packet codes.
const (
	DisconnectRequest Code = 40
	DisconnectACK     Code = 41
	DisconnectNAK     Code = 42
	CoARequest        Code = 43
	CoAACK            Code = 44
	CoANAK            Code = 45
)

// AttrErrorCause is the RFC 5176 §3.5 Error-Cause attribute carried in
// NAK replies.
const AttrErrorCause byte = 101

// Error-Cause values (RFC 5176 §3.5).
const (
	ErrCauseMissingAttribute    uint32 = 402
	ErrCauseSessionNotFound     uint32 = 503
	ErrCauseResourceUnavailable uint32 = 506
)

// AppendRequest appends a server-originated request (CoA-Request,
// Disconnect-Request, or Accounting-Request) to dst and fills in its
// Request Authenticator: MD5 over the packet with a zeroed authenticator
// field followed by the shared secret (RFC 5176 §3, same construction as
// RFC 2866 §3). The computed authenticator is stored on p so a
// retransmission reuses it byte-identically.
//
//lint:hotpath
func (p *Packet) AppendRequest(dst []byte, secret []byte) []byte {
	return p.appendSigned(dst, &[16]byte{}, secret)
}

// VerifyRequest checks a server-originated request's Request
// Authenticator against the shared secret.
func VerifyRequest(req []byte, secret []byte) error {
	return verify(req, &[16]byte{}, secret)
}

// nakWithCause fills rep with a NAK reply carrying an Error-Cause.
//
//lint:hotpath
func nakWithCause(rep *Packet, code Code, id byte, cause uint32) {
	rep.Reset(code, id)
	rep.AddU32(AttrErrorCause, cause)
}

// handleDisconnect processes one first-seen Disconnect-Request into rep:
// the named user's session is torn down and its addresses freed, forcing
// the subscriber through a full reattach (§2.2's operator-driven
// changes).
//
//lint:hotpath
func (s *Server) handleDisconnect(req, rep *Packet) {
	user, ok := req.Get(AttrUserName)
	if !ok || len(user) == 0 {
		s.stats.DynauthNAKs++
		nakWithCause(rep, DisconnectNAK, req.Identifier, ErrCauseMissingAttribute)
		return
	}
	id, ok := s.live(user)
	if !ok {
		s.stats.DynauthNAKs++
		nakWithCause(rep, DisconnectNAK, req.Identifier, ErrCauseSessionNotFound)
		return
	}
	s.StopSession(id)
	rep.Reset(DisconnectACK, req.Identifier)
}

// handleCoA processes one first-seen CoA-Request into rep: the named
// user's live session is re-authorized with freshly allocated addresses
// — the mid-lease renumbering a RADIUS operator forces without
// disconnecting the subscriber. The ACK carries the new
// Framed-IP-Address and, when the server delegates IPv6, the new
// Delegated-IPv6-Prefix.
//
//lint:hotpath
func (s *Server) handleCoA(req, rep *Packet) {
	user, ok := req.Get(AttrUserName)
	if !ok || len(user) == 0 {
		s.stats.DynauthNAKs++
		nakWithCause(rep, CoANAK, req.Identifier, ErrCauseMissingAttribute)
		return
	}
	id, ok := s.live(user)
	if !ok {
		s.stats.DynauthNAKs++
		nakWithCause(rep, CoANAK, req.Identifier, ErrCauseSessionNotFound)
		return
	}
	sess, err := s.StartSession(id)
	if err != nil {
		s.stats.DynauthNAKs++
		nakWithCause(rep, CoANAK, req.Identifier, ErrCauseResourceUnavailable)
		return
	}
	s.grant(rep, CoAACK, req.Identifier, sess)
}
