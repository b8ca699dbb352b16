// Package dhcp6 implements the subset of DHCPv6 (RFC 8415) with prefix
// delegation (RFC 3633, folded into RFC 8415's IA_PD) that residential ISPs
// use to delegate IPv6 prefixes to CPE devices. The paper's IPv6 analyses
// are entirely about the dynamics of these delegated prefixes: internal/isp
// drives this package's Server as the IPv6 delegation machinery, and the
// CPE models decide which /64 of the delegation the subscriber LAN sees.
package dhcp6

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// MessageType is the DHCPv6 message type.
type MessageType byte

// RFC 8415 §7.3 message types (subset).
const (
	Solicit   MessageType = 1
	Advertise MessageType = 2
	Request   MessageType = 3
	Confirm   MessageType = 4
	Renew     MessageType = 5
	Rebind    MessageType = 6
	Reply     MessageType = 7
	Release   MessageType = 8
)

var mtNames = map[MessageType]string{
	Solicit: "SOLICIT", Advertise: "ADVERTISE", Request: "REQUEST",
	Confirm: "CONFIRM", Renew: "RENEW", Rebind: "REBIND", Reply: "REPLY",
	Release: "RELEASE",
}

// String returns the RFC name of the message type.
func (m MessageType) String() string {
	if s, ok := mtNames[m]; ok {
		return s
	}
	return fmt.Sprintf("TYPE(%d)", byte(m))
}

// Option codes (RFC 8415 §21).
const (
	OptClientID    uint16 = 1
	OptServerID    uint16 = 2
	OptIAPD        uint16 = 25
	OptIAPrefix    uint16 = 26
	OptStatusCode  uint16 = 13
	OptRapidCommit uint16 = 14
)

// Status codes (RFC 8415 §21.13).
const (
	StatusSuccess       uint16 = 0
	StatusNoBinding     uint16 = 3
	StatusNoPrefixAvail uint16 = 6
)

// Errors returned by Decode and Unmarshal.
var (
	ErrShortMessage = errors.New("dhcp6: message too short")
	ErrBadOption    = errors.New("dhcp6: malformed option")
)

// DUID identifies a DHCPv6 endpoint. The simulator uses DUID-LL built
// from the CPE's MAC; any opaque bytes are accepted on the wire.
type DUID []byte

// DUIDLL builds a DUID-LL (type 3, ethernet) from a MAC address.
func DUIDLL(mac [6]byte) DUID {
	d := make(DUID, 10)
	binary.BigEndian.PutUint16(d, 3) // DUID-LL
	binary.BigEndian.PutUint16(d[2:], 1)
	copy(d[4:], mac[:])
	return d
}

// String renders the DUID in hex.
func (d DUID) String() string { return fmt.Sprintf("%x", []byte(d)) }

// IAPrefix is one delegated prefix inside an IA_PD.
type IAPrefix struct {
	Preferred uint32
	Valid     uint32
	Prefix    netip.Prefix
}

// IAPD is an Identity Association for Prefix Delegation.
type IAPD struct {
	IAID     uint32
	T1, T2   uint32
	Prefixes []IAPrefix
	Status   uint16 // StatusSuccess unless the server reports otherwise
	StatusOK bool   // whether a status-code option was present
}

// Message is a DHCPv6 message. It owns the identifiers Reset and Decode
// put in it, in one buffer they empty for reuse, and they reuse the
// arrays behind IAPDs and each IA's Prefixes: a message that is reset or
// decoded into again allocates nothing once those have grown. A caller
// that points IAPDs at an array of its own must not reset or decode into
// the message.
type Message struct {
	Type MessageType
	// TxnID uses 24 bits on the wire.
	TxnID    uint32
	ClientID DUID
	ServerID DUID
	IAPDs    []IAPD
	Status   uint16
	StatusOK bool
	// RapidCommit carries RFC 8415 §18.2.1's two-message fast path: a
	// Solicit with it set asks the server to commit immediately with a
	// Reply instead of an Advertise.
	RapidCommit bool

	ids []byte // the bytes of ClientID, then ServerID, when the message owns them
}

// NewMessage returns a new message, as Reset leaves it.
func NewMessage(mt MessageType, txn uint32, client DUID) *Message {
	m := new(Message)
	m.Reset(mt, txn, client)
	return m
}

// Reset empties the message for reuse as a message of type mt in
// transaction txn (24 bits) from (or to) client, whose bytes it copies.
//
//lint:hotpath
func (m *Message) Reset(mt MessageType, txn uint32, client DUID) {
	*m = Message{Type: mt, TxnID: txn & 0xffffff, IAPDs: m.IAPDs[:0], ids: m.ids}
	m.setIDs(client, nil)
}

// setIDs copies client and server into the message's buffer and points
// ClientID and ServerID at the copies; an empty identifier is nil.
//
//lint:hotpath
func (m *Message) setIDs(client, server []byte) {
	m.ids = append(append(m.ids[:0], client...), server...)
	m.ClientID, m.ServerID = nil, nil
	if n := len(client); n > 0 {
		m.ClientID = m.ids[:n:n]
	}
	if len(server) > 0 {
		m.ServerID = m.ids[len(client):len(m.ids):len(m.ids)]
	}
}

// addIAPD appends an empty IA_PD and returns it, reusing the array
// behind IAPDs and, when it reuses an element, that element's Prefixes.
//
//lint:hotpath
func (m *Message) addIAPD() *IAPD {
	n := len(m.IAPDs)
	if n == cap(m.IAPDs) {
		m.IAPDs = append(m.IAPDs, IAPD{})
	} else {
		m.IAPDs = m.IAPDs[:n+1]
		m.IAPDs[n] = IAPD{Prefixes: m.IAPDs[n].Prefixes[:0]}
	}
	return &m.IAPDs[n]
}

func appendOption(b []byte, code uint16, data []byte) []byte {
	b = append(b, byte(code>>8), byte(code), byte(len(data)>>8), byte(len(data)))
	return append(b, data...)
}

func appendStatus(b []byte, status uint16) []byte {
	return append(b, byte(OptStatusCode>>8), byte(OptStatusCode), 0, 2, byte(status>>8), byte(status))
}

// appendIAPD appends ia as an IA_PD option, filling in its length once
// the body is written.
//
//lint:hotpath
func appendIAPD(b []byte, ia *IAPD) []byte {
	start := len(b)
	b = append(b, byte(OptIAPD>>8), byte(OptIAPD), 0, 0)
	b = binary.BigEndian.AppendUint32(b, ia.IAID)
	b = binary.BigEndian.AppendUint32(b, ia.T1)
	b = binary.BigEndian.AppendUint32(b, ia.T2)
	for _, p := range ia.Prefixes {
		b = append(b, byte(OptIAPrefix>>8), byte(OptIAPrefix), 0, 25)
		b = binary.BigEndian.AppendUint32(b, p.Preferred)
		b = binary.BigEndian.AppendUint32(b, p.Valid)
		a16 := p.Prefix.Addr().As16()
		b = append(append(b, byte(p.Prefix.Bits())), a16[:]...)
	}
	if ia.StatusOK {
		b = appendStatus(b, ia.Status)
	}
	binary.BigEndian.PutUint16(b[start+2:], uint16(len(b)-start-4))
	return b
}

// Append appends the message's wire form to dst.
//
//lint:hotpath
func (m *Message) Append(dst []byte) []byte {
	dst = append(dst, byte(m.Type), byte(m.TxnID>>16), byte(m.TxnID>>8), byte(m.TxnID))
	if len(m.ClientID) > 0 {
		dst = appendOption(dst, OptClientID, m.ClientID)
	}
	if len(m.ServerID) > 0 {
		dst = appendOption(dst, OptServerID, m.ServerID)
	}
	for i := range m.IAPDs {
		dst = appendIAPD(dst, &m.IAPDs[i])
	}
	if m.RapidCommit {
		dst = appendOption(dst, OptRapidCommit, nil)
	}
	if m.StatusOK {
		dst = appendStatus(dst, m.Status)
	}
	return dst
}

// Marshal encodes the message to wire format (Append to nil).
func (m *Message) Marshal() []byte { return m.Append(nil) }

// decode fills ia, whose Prefixes the caller has emptied, from an IA_PD
// option's body.
func (ia *IAPD) decode(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("%w: IA_PD body %d bytes", ErrBadOption, len(data))
	}
	ia.IAID = binary.BigEndian.Uint32(data)
	ia.T1 = binary.BigEndian.Uint32(data[4:])
	ia.T2 = binary.BigEndian.Uint32(data[8:])
	rest := data[12:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated IA_PD sub-option", ErrBadOption)
		}
		code := binary.BigEndian.Uint16(rest)
		l := int(binary.BigEndian.Uint16(rest[2:]))
		if 4+l > len(rest) {
			return fmt.Errorf("%w: IA_PD sub-option overrun", ErrBadOption)
		}
		body := rest[4 : 4+l]
		switch code {
		case OptIAPrefix:
			if l < 25 {
				return fmt.Errorf("%w: IAPREFIX body %d bytes", ErrBadOption, l)
			}
			plen := int(body[8])
			addr := netip.AddrFrom16([16]byte(body[9:25]))
			p, err := addr.Prefix(plen)
			if err != nil {
				return fmt.Errorf("%w: IAPREFIX %v/%d", ErrBadOption, addr, plen)
			}
			ia.Prefixes = append(ia.Prefixes, IAPrefix{
				Preferred: binary.BigEndian.Uint32(body),
				Valid:     binary.BigEndian.Uint32(body[4:]),
				Prefix:    p,
			})
		case OptStatusCode:
			if l < 2 {
				return fmt.Errorf("%w: status code body %d bytes", ErrBadOption, l)
			}
			ia.Status = binary.BigEndian.Uint16(body)
			ia.StatusOK = true
		}
		rest = rest[4+l:]
	}
	return nil
}

// Decode fills m from a wire-format DHCPv6 message, copying the
// identifiers into m's own buffer. On error m's contents are
// unspecified.
func (m *Message) Decode(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%w: %d bytes", ErrShortMessage, len(b))
	}
	*m = Message{
		Type:  MessageType(b[0]),
		TxnID: uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]),
		IAPDs: m.IAPDs[:0],
		ids:   m.ids,
	}
	var client, server []byte
	rest := b[4:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated option header", ErrBadOption)
		}
		code := binary.BigEndian.Uint16(rest)
		l := int(binary.BigEndian.Uint16(rest[2:]))
		if 4+l > len(rest) {
			return fmt.Errorf("%w: option %d overruns message", ErrBadOption, code)
		}
		body := rest[4 : 4+l]
		switch code {
		case OptClientID:
			client = body
		case OptServerID:
			server = body
		case OptIAPD:
			if err := m.addIAPD().decode(body); err != nil {
				return err
			}
		case OptStatusCode:
			if l < 2 {
				return fmt.Errorf("%w: status code body %d bytes", ErrBadOption, l)
			}
			m.Status = binary.BigEndian.Uint16(body)
			m.StatusOK = true
		case OptRapidCommit:
			m.RapidCommit = true
		}
		rest = rest[4+l:]
	}
	m.setIDs(client, server)
	return nil
}

// Unmarshal decodes a wire-format DHCPv6 message into a new Message.
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	if err := m.Decode(b); err != nil {
		return nil, err
	}
	return m, nil
}
