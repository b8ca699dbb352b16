// Package dhcp4 implements the subset of DHCPv4 (RFC 2131/2132) that
// domestic ISPs use to assign IPv4 addresses to CPE devices: the wire
// codec for the fixed-format BOOTP header plus TLV options, and a lease
// server with configurable lease durations and reclamation behavior.
//
// The paper's temporal analyses hinge on DHCP semantics — leases, renewals
// before expiry, reclamation after CPE outages longer than the lease
// (§2.2) — and serve-bng's engines (internal/bng) drive this package's
// Server as the IPv4 assignment machinery for simulated subscribers.
package dhcp4

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sort"
)

// MessageType is the DHCP message type (option 53).
type MessageType byte

// RFC 2132 §9.6 message type values.
const (
	Discover MessageType = 1
	Offer    MessageType = 2
	Request  MessageType = 3
	Decline  MessageType = 4
	ACK      MessageType = 5
	NAK      MessageType = 6
	Release  MessageType = 7
	Inform   MessageType = 8
)

var mtNames = map[MessageType]string{
	Discover: "DISCOVER", Offer: "OFFER", Request: "REQUEST", Decline: "DECLINE",
	ACK: "ACK", NAK: "NAK", Release: "RELEASE", Inform: "INFORM",
}

// String returns the RFC name of the message type.
func (m MessageType) String() string {
	if s, ok := mtNames[m]; ok {
		return s
	}
	return fmt.Sprintf("TYPE(%d)", byte(m))
}

// Option codes used by this implementation (RFC 2132).
const (
	OptRequestedIP   byte = 50
	OptLeaseTime     byte = 51
	OptMessageType   byte = 53
	OptServerID      byte = 54
	OptRenewalTime   byte = 58
	OptRebindingTime byte = 59
	optPad           byte = 0
	optEnd           byte = 255
)

// Opcode values for the BOOTP op field.
const (
	OpRequest byte = 1
	OpReply   byte = 2
)

var magicCookie = [4]byte{99, 130, 83, 99}

// Errors returned by Unmarshal.
var (
	ErrShortMessage = errors.New("dhcp4: message too short")
	ErrBadCookie    = errors.New("dhcp4: bad magic cookie")
	ErrBadOptions   = errors.New("dhcp4: malformed options")
)

// HWAddr is a client hardware address (chaddr); residential CPEs use
// 6-byte MACs.
type HWAddr [6]byte

// String formats the hardware address in colon notation.
func (h HWAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", h[0], h[1], h[2], h[3], h[4], h[5])
}

// Message is a DHCPv4 message: the fixed BOOTP fields plus options.
type Message struct {
	Op     byte
	Hops   byte
	XID    uint32
	Secs   uint16
	Flags  uint16
	CIAddr netip.Addr // client's current address, for renewals
	YIAddr netip.Addr // "your" address, set by the server
	SIAddr netip.Addr
	GIAddr netip.Addr
	CHAddr HWAddr

	Options map[byte][]byte
}

const headerLen = 236 // through the file field, before the cookie

// NewMessage returns a message of the given type with empty but non-nil
// options and zeroed addresses.
func NewMessage(mt MessageType, xid uint32, hw HWAddr) *Message {
	op := OpRequest
	if mt == Offer || mt == ACK || mt == NAK {
		op = OpReply
	}
	m := &Message{
		Op:     op,
		XID:    xid,
		CHAddr: hw,
		CIAddr: netip.IPv4Unspecified(),
		YIAddr: netip.IPv4Unspecified(),
		SIAddr: netip.IPv4Unspecified(),
		GIAddr: netip.IPv4Unspecified(),
		Options: map[byte][]byte{
			OptMessageType: {byte(mt)},
		},
	}
	return m
}

// Type returns the message type from option 53, or 0 if absent.
func (m *Message) Type() MessageType {
	if v, ok := m.Options[OptMessageType]; ok && len(v) == 1 {
		return MessageType(v[0])
	}
	return 0
}

func put4(b []byte, a netip.Addr) {
	if a.IsValid() {
		v4 := a.Unmap().As4()
		copy(b, v4[:])
	}
}

func get4(b []byte) netip.Addr {
	return netip.AddrFrom4([4]byte(b[:4]))
}

// SetAddrOption stores an IPv4 address option (e.g. server ID, requested IP).
func (m *Message) SetAddrOption(code byte, a netip.Addr) {
	v4 := a.Unmap().As4()
	m.Options[code] = v4[:]
}

// AddrOption fetches an IPv4 address option.
func (m *Message) AddrOption(code byte) (netip.Addr, bool) {
	v, ok := m.Options[code]
	if !ok || len(v) != 4 {
		return netip.Addr{}, false
	}
	return get4(v), true
}

// SetU32Option stores a 32-bit option (e.g. lease time in seconds).
func (m *Message) SetU32Option(code byte, v uint32) {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, v)
	m.Options[code] = b
}

// U32Option fetches a 32-bit option.
func (m *Message) U32Option(code byte) (uint32, bool) {
	v, ok := m.Options[code]
	if !ok || len(v) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v), true
}

// Marshal encodes the message to wire format.
func (m *Message) Marshal() []byte {
	buf := make([]byte, headerLen, headerLen+4+64)
	buf[0] = m.Op
	buf[1] = 1 // htype: ethernet
	buf[2] = 6 // hlen
	buf[3] = m.Hops
	binary.BigEndian.PutUint32(buf[4:], m.XID)
	binary.BigEndian.PutUint16(buf[8:], m.Secs)
	binary.BigEndian.PutUint16(buf[10:], m.Flags)
	put4(buf[12:], m.CIAddr)
	put4(buf[16:], m.YIAddr)
	put4(buf[20:], m.SIAddr)
	put4(buf[24:], m.GIAddr)
	copy(buf[28:], m.CHAddr[:])
	// sname (64) and file (128) stay zero.
	buf = append(buf, magicCookie[:]...)
	codes := make([]byte, 0, len(m.Options))
	for c := range m.Options {
		codes = append(codes, c)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for _, c := range codes {
		v := m.Options[c]
		buf = append(buf, c, byte(len(v)))
		buf = append(buf, v...)
	}
	buf = append(buf, optEnd)
	return buf
}

// Unmarshal decodes a wire-format message.
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < headerLen+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrShortMessage, len(b))
	}
	if [4]byte(b[headerLen:headerLen+4]) != magicCookie {
		return nil, ErrBadCookie
	}
	m := &Message{
		Op:      b[0],
		Hops:    b[3],
		XID:     binary.BigEndian.Uint32(b[4:]),
		Secs:    binary.BigEndian.Uint16(b[8:]),
		Flags:   binary.BigEndian.Uint16(b[10:]),
		CIAddr:  get4(b[12:]),
		YIAddr:  get4(b[16:]),
		SIAddr:  get4(b[20:]),
		GIAddr:  get4(b[24:]),
		Options: make(map[byte][]byte),
	}
	copy(m.CHAddr[:], b[28:34])
	opts := b[headerLen+4:]
	for i := 0; i < len(opts); {
		code := opts[i]
		switch code {
		case optPad:
			i++
			continue
		case optEnd:
			return m, nil
		}
		if i+1 >= len(opts) {
			return nil, fmt.Errorf("%w: truncated option %d", ErrBadOptions, code)
		}
		l := int(opts[i+1])
		if i+2+l > len(opts) {
			return nil, fmt.Errorf("%w: option %d overruns message", ErrBadOptions, code)
		}
		m.Options[code] = append([]byte(nil), opts[i+2:i+2+l]...)
		i += 2 + l
	}
	return nil, fmt.Errorf("%w: missing end option", ErrBadOptions)
}
