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
	"slices"
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
	AttrDelegatedIPv6Prefix byte = 123
)

// Errors returned by Decode and Parse.
var (
	ErrShortPacket  = errors.New("radius: packet too short")
	ErrBadLength    = errors.New("radius: bad length field")
	ErrBadAttribute = errors.New("radius: malformed attribute")
	ErrBadAuth      = errors.New("radius: response authenticator mismatch")
)

// Packet is a RADIUS packet. It owns its attributes: they are kept in
// their wire form (type, length, value) in one buffer that Reset empties
// for reuse, so a packet that is reset or decoded into again allocates
// nothing once that buffer has grown.
type Packet struct {
	Code          Code
	Identifier    byte
	Authenticator [16]byte
	attrs         []byte
}

// maxAttrLen is the longest attribute value: an attribute's length octet
// counts its two header octets too (RFC 2865 §5).
const maxAttrLen = 253

// maxPacketLen is RFC 2865 §3's maximum packet length.
const maxPacketLen = 4096

// New builds a packet with the given code and identifier.
func New(code Code, id byte) *Packet {
	return &Packet{Code: code, Identifier: id}
}

// Reset empties the packet for reuse with the given code and identifier,
// keeping its attribute buffer.
//
//lint:hotpath
func (p *Packet) Reset(code Code, id byte) {
	*p = Packet{Code: code, Identifier: id, attrs: p.attrs[:0]}
}

// grow appends attribute t with an n-byte zero value and returns the
// value for the caller to fill. It extends the buffer in place rather
// than appending a make'd slice, which allocates under the race
// detector.
//
//lint:hotpath
func (p *Packet) grow(t byte, n int) []byte {
	if n > maxAttrLen {
		panic(fmt.Sprintf("radius: attribute %d value too long (%d bytes)", t, n))
	}
	p.attrs = append(p.attrs, t, byte(n+2))
	p.attrs = slices.Grow(p.attrs, n)[:len(p.attrs)+n]
	v := p.attrs[len(p.attrs)-n:]
	clear(v)
	return v
}

// Add appends a raw attribute, copying v.
//
//lint:hotpath
func (p *Packet) Add(t byte, v []byte) { copy(p.grow(t, len(v)), v) }

// AddString appends a text attribute (e.g. User-Name).
//
//lint:hotpath
func (p *Packet) AddString(t byte, s string) { copy(p.grow(t, len(s)), s) }

// AddU32 appends a 32-bit integer attribute (e.g. Session-Timeout).
//
//lint:hotpath
func (p *Packet) AddU32(t byte, v uint32) { binary.BigEndian.PutUint32(p.grow(t, 4), v) }

// AddAddr4 appends an IPv4 address attribute (e.g. Framed-IP-Address).
//
//lint:hotpath
func (p *Packet) AddAddr4(t byte, a netip.Addr) {
	v4 := a.Unmap().As4()
	copy(p.grow(t, 4), v4[:])
}

// AddPrefix6 appends an IPv6 prefix attribute in RFC 3162 §2.3 format
// (reserved byte, prefix length, prefix bytes).
//
//lint:hotpath
func (p *Packet) AddPrefix6(t byte, pre netip.Prefix) {
	nBytes := (pre.Bits() + 7) / 8
	v := p.grow(t, 2+nBytes)
	v[1] = byte(pre.Bits())
	a16 := pre.Addr().As16()
	copy(v[2:], a16[:nBytes])
}

// Get returns the first attribute of the given type. The value is the
// packet's own, valid until the packet is next reset or decoded into.
func (p *Packet) Get(t byte) ([]byte, bool) {
	for b := p.attrs; len(b) >= 2; b = b[b[1]:] {
		if b[0] == t {
			return b[2:b[1]:b[1]], true
		}
	}
	return nil, false
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

// appendWire appends the packet's wire form with auth in its
// authenticator field.
//
//lint:hotpath
func (p *Packet) appendWire(dst []byte, auth *[16]byte) []byte {
	n := 20 + len(p.attrs)
	dst = append(dst, byte(p.Code), p.Identifier, byte(n>>8), byte(n))
	dst = append(dst, auth[:]...)
	return append(dst, p.attrs...)
}

// Append appends the packet's wire form, with its current
// authenticator, to dst.
//
//lint:hotpath
func (p *Packet) Append(dst []byte) []byte { return p.appendWire(dst, &p.Authenticator) }

// appendSigned appends the packet's wire form with auth in its
// authenticator field, then replaces that field, and p's Authenticator,
// with MD5 over the packet followed by secret. The secret is appended in
// dst's spare capacity, which is grown first, so hashing copies nothing
// and a reused dst is not reallocated.
//
//lint:hotpath
func (p *Packet) appendSigned(dst []byte, auth *[16]byte, secret []byte) []byte {
	start := len(dst)
	dst = p.appendWire(slices.Grow(dst, 20+len(p.attrs)+len(secret)), auth)
	p.Authenticator = md5.Sum(append(dst, secret...)[start:])
	copy(dst[start+4:start+20], p.Authenticator[:])
	return dst
}

// AppendResponse appends a reply to request to dst, computing the RFC
// 2865 §3 response authenticator
// MD5(Code+ID+Length+RequestAuth+Attributes+Secret).
//
//lint:hotpath
func (p *Packet) AppendResponse(dst []byte, request *Packet, secret []byte) []byte {
	return p.appendSigned(dst, &request.Authenticator, secret)
}

// EncodeResponse serializes a reply to request (AppendResponse to nil).
func (p *Packet) EncodeResponse(request *Packet, secret []byte) []byte {
	return p.AppendResponse(nil, request, secret)
}

// verify checks wire's authenticator field against MD5 over wire, with
// auth in place of that field, followed by secret. It hashes a copy on
// the stack, unless the packet and secret outgrow RFC 2865's largest
// packet.
func verify(wire []byte, auth *[16]byte, secret []byte) error {
	if len(wire) < 20 {
		return ErrShortPacket
	}
	var stack [maxPacketLen]byte
	b := append(append(stack[:0], wire[:4]...), auth[:]...)
	b = append(append(b, wire[20:]...), secret...)
	if md5.Sum(b) != [16]byte(wire[4:20]) {
		return ErrBadAuth
	}
	return nil
}

// VerifyResponse checks a reply's response authenticator against the
// originating request and shared secret.
func VerifyResponse(reply []byte, request *Packet, secret []byte) error {
	return verify(reply, &request.Authenticator, secret)
}

// Decode fills p from a wire-format packet, copying its attributes into
// p's own buffer. On error p is left unchanged.
func (p *Packet) Decode(b []byte) error {
	if len(b) < 20 {
		return fmt.Errorf("%w: %d bytes", ErrShortPacket, len(b))
	}
	length := int(binary.BigEndian.Uint16(b[2:]))
	if length < 20 || length > len(b) {
		return fmt.Errorf("%w: claims %d of %d bytes", ErrBadLength, length, len(b))
	}
	attrs := b[20:length]
	for rest := attrs; len(rest) > 0; rest = rest[rest[1]:] {
		if len(rest) < 2 {
			return fmt.Errorf("%w: truncated header", ErrBadAttribute)
		}
		if l := int(rest[1]); l < 2 || l > len(rest) {
			return fmt.Errorf("%w: type %d length %d", ErrBadAttribute, rest[0], l)
		}
	}
	p.Code, p.Identifier = Code(b[0]), b[1]
	p.Authenticator = [16]byte(b[4:20])
	p.attrs = append(p.attrs[:0], attrs...)
	return nil
}

// Parse decodes a wire-format packet into a new Packet.
func Parse(b []byte) (*Packet, error) {
	p := new(Packet)
	if err := p.Decode(b); err != nil {
		return nil, err
	}
	return p, nil
}
