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
	"slices"
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

// Errors returned by Decode and Unmarshal.
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

// Message is a DHCPv4 message: the fixed BOOTP fields plus options. It
// owns its option values, in one buffer that Reset and Decode empty for
// reuse, so a message built or decoded into again allocates nothing
// once its buffers have grown.
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

	// opts lists the options in ascending code order, one per code:
	// setting a code again replaces its value (the last value wins).
	opts []option
	buf  []byte // the option values
}

// option is one option of a message, its value at buf[off:end].
type option struct {
	code     byte
	off, end int
}

const headerLen = 236 // through the file field, before the cookie

// NewMessage returns a new message, as Reset leaves it.
func NewMessage(mt MessageType, xid uint32, hw HWAddr) *Message {
	m := new(Message)
	m.Reset(mt, xid, hw)
	return m
}

// Reset empties the message for reuse as a message of type mt from (or
// to) hw: every field is cleared, the hop count and giaddr included, the
// addresses are set to 0.0.0.0, and the only option is the message type.
// The message keeps its buffers.
//
//lint:hotpath
func (m *Message) Reset(mt MessageType, xid uint32, hw HWAddr) {
	op := OpRequest
	if mt == Offer || mt == ACK || mt == NAK {
		op = OpReply
	}
	unspec := netip.IPv4Unspecified()
	*m = Message{
		Op:     op,
		XID:    xid,
		CHAddr: hw,
		CIAddr: unspec,
		YIAddr: unspec,
		SIAddr: unspec,
		GIAddr: unspec,
		opts:   m.opts[:0],
		buf:    m.buf[:0],
	}
	m.set(OptMessageType, 1)[0] = byte(mt)
}

// Type returns the message type from option 53, or 0 if absent.
func (m *Message) Type() MessageType {
	if v, ok := m.lookup(OptMessageType); ok && len(v) == 1 {
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

// set gives option code an n-byte zero value, replacing any value it
// had, and returns the value for the caller to fill.
//
//lint:hotpath
func (m *Message) set(code byte, n int) []byte {
	i := 0
	for i < len(m.opts) && m.opts[i].code < code {
		i++
	}
	if i == len(m.opts) || m.opts[i].code != code {
		m.opts = slices.Insert(m.opts, i, option{code: code})
	}
	off := len(m.buf)
	m.buf = zeroExtend(m.buf, n)
	m.opts[i].off, m.opts[i].end = off, len(m.buf)
	return m.buf[off:]
}

// zeroExtend appends n zero bytes to b in place, growing it only when
// its capacity is short: appending a make'd slice instead allocates
// under the race detector.
//
//lint:hotpath
func zeroExtend(b []byte, n int) []byte {
	b = slices.Grow(b, n)[:len(b)+n]
	clear(b[len(b)-n:])
	return b
}

// lookup returns option code's value. The value is the message's own,
// valid until the message is next reset or decoded into.
func (m *Message) lookup(code byte) ([]byte, bool) {
	for _, o := range m.opts {
		if o.code == code {
			return m.buf[o.off:o.end:o.end], true
		}
	}
	return nil, false
}

// SetOption stores option code's value, copying v.
//
//lint:hotpath
func (m *Message) SetOption(code byte, v []byte) { copy(m.set(code, len(v)), v) }

// SetAddrOption stores an IPv4 address option (e.g. server ID, requested IP).
//
//lint:hotpath
func (m *Message) SetAddrOption(code byte, a netip.Addr) {
	v4 := a.Unmap().As4()
	copy(m.set(code, 4), v4[:])
}

// AddrOption fetches an IPv4 address option.
func (m *Message) AddrOption(code byte) (netip.Addr, bool) {
	v, ok := m.lookup(code)
	if !ok || len(v) != 4 {
		return netip.Addr{}, false
	}
	return get4(v), true
}

// SetU32Option stores a 32-bit option (e.g. lease time in seconds).
//
//lint:hotpath
func (m *Message) SetU32Option(code byte, v uint32) {
	binary.BigEndian.PutUint32(m.set(code, 4), v)
}

// U32Option fetches a 32-bit option.
func (m *Message) U32Option(code byte) (uint32, bool) {
	v, ok := m.lookup(code)
	if !ok || len(v) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(v), true
}

// Append appends the message's wire form to dst, its options in
// ascending code order.
//
//lint:hotpath
func (m *Message) Append(dst []byte) []byte {
	start := len(dst)
	dst = zeroExtend(dst, headerLen)
	b := dst[start:]
	b[0] = m.Op
	b[1] = 1 // htype: ethernet
	b[2] = 6 // hlen
	b[3] = m.Hops
	binary.BigEndian.PutUint32(b[4:], m.XID)
	binary.BigEndian.PutUint16(b[8:], m.Secs)
	binary.BigEndian.PutUint16(b[10:], m.Flags)
	put4(b[12:], m.CIAddr)
	put4(b[16:], m.YIAddr)
	put4(b[20:], m.SIAddr)
	put4(b[24:], m.GIAddr)
	copy(b[28:], m.CHAddr[:])
	// sname (64) and file (128) stay zero.
	dst = append(dst, magicCookie[:]...)
	for _, o := range m.opts {
		dst = append(dst, o.code, byte(o.end-o.off))
		dst = append(dst, m.buf[o.off:o.end]...)
	}
	return append(dst, optEnd)
}

// Marshal encodes the message to wire format (Append to nil).
func (m *Message) Marshal() []byte { return m.Append(nil) }

// Decode fills m from a wire-format message, copying the option values
// into m's own buffer. On error m's contents are unspecified.
func (m *Message) Decode(b []byte) error {
	if len(b) < headerLen+4 {
		return fmt.Errorf("%w: %d bytes", ErrShortMessage, len(b))
	}
	if [4]byte(b[headerLen:headerLen+4]) != magicCookie {
		return ErrBadCookie
	}
	*m = Message{
		Op:     b[0],
		Hops:   b[3],
		XID:    binary.BigEndian.Uint32(b[4:]),
		Secs:   binary.BigEndian.Uint16(b[8:]),
		Flags:  binary.BigEndian.Uint16(b[10:]),
		CIAddr: get4(b[12:]),
		YIAddr: get4(b[16:]),
		SIAddr: get4(b[20:]),
		GIAddr: get4(b[24:]),
		CHAddr: HWAddr(b[28:34]),
		opts:   m.opts[:0],
		buf:    m.buf[:0],
	}
	opts := b[headerLen+4:]
	for i := 0; i < len(opts); {
		code := opts[i]
		switch code {
		case optPad:
			i++
			continue
		case optEnd:
			return nil
		}
		if i+1 >= len(opts) {
			return fmt.Errorf("%w: truncated option %d", ErrBadOptions, code)
		}
		l := int(opts[i+1])
		if i+2+l > len(opts) {
			return fmt.Errorf("%w: option %d overruns message", ErrBadOptions, code)
		}
		m.SetOption(code, opts[i+2:i+2+l])
		i += 2 + l
	}
	return fmt.Errorf("%w: missing end option", ErrBadOptions)
}

// Unmarshal decodes a wire-format message into a new Message.
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	if err := m.Decode(b); err != nil {
		return nil, err
	}
	return m, nil
}
