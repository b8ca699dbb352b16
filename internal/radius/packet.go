// Package radius implements the subset of RADIUS (RFC 2865) that broadband
// ISPs use for subscriber address assignment: the packet codec with
// response authenticators, the Framed-IP-Address /
// Delegated-IPv6-Prefix / Session-Timeout attributes, and an
// Access-Request server that allocates addresses per session.
//
// RADIUS-assigned addresses "typically change after the configured
// SessionTimeout" (§2.2) because the server keeps no binding across
// sessions — the behavior behind the paper's periodic renumbering
// observations (24 h in DTAG, 1 week in Orange, …). internal/isp drives
// this package's Server for RADIUS-style profiles.
package radius

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Code is the RADIUS packet code.
type Code byte

// RFC 2865/2866 packet codes (subset).
const (
	AccessRequest      Code = 1
	AccessAccept       Code = 2
	AccessReject       Code = 3
	AccountingRequest  Code = 4
	AccountingResponse Code = 5
)

var codeNames = map[Code]string{
	AccessRequest: "Access-Request", AccessAccept: "Access-Accept",
	AccessReject: "Access-Reject", AccountingRequest: "Accounting-Request",
	AccountingResponse: "Accounting-Response",
	DisconnectRequest:  "Disconnect-Request", DisconnectACK: "Disconnect-ACK",
	DisconnectNAK: "Disconnect-NAK", CoARequest: "CoA-Request",
	CoAACK: "CoA-ACK", CoANAK: "CoA-NAK",
}

// String returns the RFC name of the code.
func (c Code) String() string {
	if s, ok := codeNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Code(%d)", byte(c))
}

// Attribute types used by this implementation.
const (
	AttrUserName            byte = 1
	AttrFramedIPAddress     byte = 8
	AttrSessionTimeout      byte = 27
	AttrAcctStatusType      byte = 40
	AttrDelegatedIPv6Prefix byte = 123
)

// AcctStop is the RFC 2866 Acct-Status-Type value that ends a session.
const AcctStop uint32 = 2

// Errors returned by Parse.
var (
	ErrShortPacket  = errors.New("radius: packet too short")
	ErrBadLength    = errors.New("radius: bad length field")
	ErrBadAttribute = errors.New("radius: malformed attribute")
	ErrBadAuth      = errors.New("radius: response authenticator mismatch")
)

// Attribute is one TLV.
type Attribute struct {
	Type  byte
	Value []byte
}

// Packet is a RADIUS packet.
type Packet struct {
	Code          Code
	Identifier    byte
	Authenticator [16]byte
	Attributes    []Attribute
}

// New builds a packet with the given code and identifier.
func New(code Code, id byte) *Packet {
	return &Packet{Code: code, Identifier: id}
}

// Add appends a raw attribute.
func (p *Packet) Add(t byte, v []byte) { p.Attributes = append(p.Attributes, Attribute{t, v}) }

// AddString appends a text attribute (e.g. User-Name).
func (p *Packet) AddString(t byte, s string) { p.Add(t, []byte(s)) }

// AddU32 appends a 32-bit integer attribute (e.g. Session-Timeout).
func (p *Packet) AddU32(t byte, v uint32) {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	p.Add(t, b)
}

// AddAddr4 appends an IPv4 address attribute (e.g. Framed-IP-Address).
func (p *Packet) AddAddr4(t byte, a netip.Addr) {
	v4 := a.Unmap().As4()
	p.Add(t, v4[:])
}

// AddPrefix6 appends an IPv6 prefix attribute in RFC 3162 §2.3 format
// (reserved byte, prefix length, prefix bytes).
func (p *Packet) AddPrefix6(t byte, pre netip.Prefix) {
	nBytes := (pre.Bits() + 7) / 8
	v := make([]byte, 2+nBytes)
	v[1] = byte(pre.Bits())
	a16 := pre.Addr().As16()
	copy(v[2:], a16[:nBytes])
	p.Add(t, v)
}

// Get returns the first attribute of the given type.
func (p *Packet) Get(t byte) ([]byte, bool) {
	for _, a := range p.Attributes {
		if a.Type == t {
			return a.Value, true
		}
	}
	return nil, false
}

// GetString fetches a text attribute.
func (p *Packet) GetString(t byte) (string, bool) {
	v, ok := p.Get(t)
	return string(v), ok
}

// GetU32 fetches a 32-bit integer attribute.
func (p *Packet) GetU32(t byte) (uint32, bool) {
	v, ok := p.Get(t)
	if !ok || len(v) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v), true
}

// GetAddr4 fetches an IPv4 address attribute.
func (p *Packet) GetAddr4(t byte) (netip.Addr, bool) {
	v, ok := p.Get(t)
	if !ok || len(v) != 4 {
		return netip.Addr{}, false
	}
	return netip.AddrFrom4([4]byte(v)), true
}

// GetPrefix6 fetches an RFC 3162 IPv6 prefix attribute.
func (p *Packet) GetPrefix6(t byte) (netip.Prefix, bool) {
	v, ok := p.Get(t)
	if !ok || len(v) < 2 {
		return netip.Prefix{}, false
	}
	bits := int(v[1])
	if bits > 128 || len(v)-2 < (bits+7)/8 {
		return netip.Prefix{}, false
	}
	var a16 [16]byte
	copy(a16[:], v[2:])
	pre, err := netip.AddrFrom16(a16).Prefix(bits)
	if err != nil {
		return netip.Prefix{}, false
	}
	return pre, true
}

func (p *Packet) attrBytes() []byte {
	var b []byte
	for _, a := range p.Attributes {
		if len(a.Value) > 253 {
			panic(fmt.Sprintf("radius: attribute %d value too long (%d bytes)", a.Type, len(a.Value)))
		}
		b = append(b, a.Type, byte(len(a.Value)+2))
		b = append(b, a.Value...)
	}
	return b
}

// Encode serializes the packet with its current authenticator.
func (p *Packet) Encode() []byte {
	attrs := p.attrBytes()
	b := make([]byte, 20+len(attrs))
	b[0] = byte(p.Code)
	b[1] = p.Identifier
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	copy(b[4:20], p.Authenticator[:])
	copy(b[20:], attrs)
	return b
}

// EncodeResponse serializes a reply to request, computing the RFC 2865 §3
// response authenticator MD5(Code+ID+Length+RequestAuth+Attributes+Secret).
func (p *Packet) EncodeResponse(request *Packet, secret []byte) []byte {
	attrs := p.attrBytes()
	b := make([]byte, 20+len(attrs))
	b[0] = byte(p.Code)
	b[1] = p.Identifier
	binary.BigEndian.PutUint16(b[2:], uint16(len(b)))
	copy(b[4:20], request.Authenticator[:])
	copy(b[20:], attrs)
	h := md5.New()
	h.Write(b)
	h.Write(secret)
	sum := h.Sum(nil)
	copy(b[4:20], sum)
	copy(p.Authenticator[:], sum)
	return b
}

// VerifyResponse checks a reply's response authenticator against the
// originating request and shared secret.
func VerifyResponse(reply []byte, request *Packet, secret []byte) error {
	if len(reply) < 20 {
		return ErrShortPacket
	}
	var got [16]byte
	copy(got[:], reply[4:20])
	scratch := append([]byte(nil), reply...)
	copy(scratch[4:20], request.Authenticator[:])
	h := md5.New()
	h.Write(scratch)
	h.Write(secret)
	if [16]byte(h.Sum(nil)) != got {
		return ErrBadAuth
	}
	return nil
}

// Parse decodes a wire-format packet.
func Parse(b []byte) (*Packet, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("%w: %d bytes", ErrShortPacket, len(b))
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < 20 || length > len(b) {
		return nil, fmt.Errorf("%w: claims %d of %d bytes", ErrBadLength, length, len(b))
	}
	p := &Packet{Code: Code(b[0]), Identifier: b[1]}
	copy(p.Authenticator[:], b[4:20])
	rest := b[20:length]
	for len(rest) > 0 {
		if len(rest) < 2 {
			return nil, fmt.Errorf("%w: truncated header", ErrBadAttribute)
		}
		l := int(rest[1])
		if l < 2 || l > len(rest) {
			return nil, fmt.Errorf("%w: type %d length %d", ErrBadAttribute, rest[0], l)
		}
		p.Add(rest[0], append([]byte(nil), rest[2:l]...))
		rest = rest[l:]
	}
	return p, nil
}
