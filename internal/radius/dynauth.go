// Dynamic Authorization Extensions (RFC 5176): CoA-Request and
// Disconnect-Request handling. These are the operator-initiated packets
// behind mid-lease renumbering — a CoA re-authorizes a live session with
// fresh address attributes, a Disconnect-Message tears it down — and
// both produce DynamIPs-visible assignment changes that no subscriber
// action explains. internal/bng's engines drive these paths for
// scenario-scheduled operator events.
package radius

import (
	"crypto/md5"
	"encoding/binary"
)

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

// EncodeRequest serializes a server-originated request (CoA-Request,
// Disconnect-Request, or Accounting-Request) and fills in its Request
// Authenticator: MD5 over the packet with a zeroed authenticator field
// followed by the shared secret (RFC 5176 §3, same construction as
// RFC 2866 §3). The computed authenticator is stored on p so a
// retransmission reuses it byte-identically.
func (p *Packet) EncodeRequest(secret []byte) []byte {
	attrs := p.attrBytes()
	b := make([]byte, 20+len(attrs))
	b[0] = byte(p.Code)
	b[1] = p.Identifier
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	// bytes 4..20 stay zero for the digest
	copy(b[20:], attrs)
	h := md5.New()
	h.Write(b)
	h.Write(secret)
	sum := h.Sum(nil)
	copy(b[4:20], sum)
	copy(p.Authenticator[:], sum)
	return b
}

// VerifyRequest checks a server-originated request's Request
// Authenticator against the shared secret.
func VerifyRequest(req []byte, secret []byte) error {
	if len(req) < 20 {
		return ErrShortPacket
	}
	var got [16]byte
	copy(got[:], req[4:20])
	scratch := append([]byte(nil), req...)
	for i := 4; i < 20; i++ {
		scratch[i] = 0
	}
	h := md5.New()
	h.Write(scratch)
	h.Write(secret)
	if [16]byte(h.Sum(nil)) != got {
		return ErrBadAuth
	}
	return nil
}

// nakWithCause builds a NAK reply carrying an Error-Cause.
func nakWithCause(code Code, id byte, cause uint32) *Packet {
	rep := New(code, id)
	rep.AddU32(AttrErrorCause, cause)
	return rep
}

// handleDisconnect processes one first-seen Disconnect-Request: the
// named user's session is torn down and its addresses freed, forcing the
// subscriber through a full reattach (§2.2's operator-driven changes).
func (s *Server) handleDisconnect(req *Packet) *Packet {
	user, ok := req.GetString(AttrUserName)
	if !ok || user == "" {
		s.stats.DynauthNAKs++
		return nakWithCause(DisconnectNAK, req.Identifier, ErrCauseMissingAttribute)
	}
	id, ok := s.live(user)
	if !ok {
		s.stats.DynauthNAKs++
		return nakWithCause(DisconnectNAK, req.Identifier, ErrCauseSessionNotFound)
	}
	s.StopSession(id)
	return New(DisconnectACK, req.Identifier)
}

// handleCoA processes one first-seen CoA-Request: the named user's live
// session is re-authorized with freshly allocated addresses — the
// mid-lease renumbering a RADIUS operator forces without disconnecting
// the subscriber. The ACK carries the new Framed-IP-Address and, when
// the server delegates IPv6, the new Delegated-IPv6-Prefix.
func (s *Server) handleCoA(req *Packet) *Packet {
	user, ok := req.GetString(AttrUserName)
	if !ok || user == "" {
		s.stats.DynauthNAKs++
		return nakWithCause(CoANAK, req.Identifier, ErrCauseMissingAttribute)
	}
	id, ok := s.live(user)
	if !ok {
		s.stats.DynauthNAKs++
		return nakWithCause(CoANAK, req.Identifier, ErrCauseSessionNotFound)
	}
	sess, err := s.StartSession(id)
	if err != nil {
		s.stats.DynauthNAKs++
		return nakWithCause(CoANAK, req.Identifier, ErrCauseResourceUnavailable)
	}
	return s.grant(CoAACK, req.Identifier, sess)
}
