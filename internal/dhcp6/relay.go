package dhcp6

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Relay agent message types (RFC 8415 §7.3).
const (
	RelayForw MessageType = 12
	RelayRepl MessageType = 13
)

// Relay option codes (RFC 8415 §21.10, RFC 6221 §5.3).
const (
	OptRelayMsg    uint16 = 9
	OptInterfaceID uint16 = 18
)

// HopCountLimit is RFC 8415 §7.6's HOP_COUNT_LIMIT: the maximum hop
// count in a Relay-forward message.
const HopCountLimit = 8

// ErrHopLimit is returned when a relay refuses to encapsulate a message
// whose hop count has reached HOP_COUNT_LIMIT.
var ErrHopLimit = errors.New("dhcp6: relay hop count limit exceeded")

const relayHeaderLen = 34 // type + hop-count + link-address + peer-address

// A relay agent message — a Relay-forward or Relay-reply (RFC 8415 §9) —
// has a different wire layout from client/server messages: a header,
// then options, one of which, the Relay Message option, carries the
// encapsulated message. Aggregation topologies nest these: each LDRA or
// relay on the path adds a layer.

// IsRelay reports whether wire bytes carry a relay agent message.
func IsRelay(b []byte) bool {
	return len(b) > 0 && (MessageType(b[0]) == RelayForw || MessageType(b[0]) == RelayRepl)
}

// relayLayer is one decoded relay agent message layer. Its fields alias
// the bytes it was decoded from.
type relayLayer struct {
	// hdr is the header: type, hop count, link-address (an LDRA uses ::
	// and relies on Interface-ID instead, RFC 6221 §5.3.1) and
	// peer-address, the address the relay received the inner message
	// from.
	hdr []byte
	// iid is the opaque RFC 6221 access-loop identifier, empty when
	// absent.
	iid []byte
}

func (l relayLayer) typ() MessageType { return MessageType(l.hdr[0]) }

// decodeRelay decodes the relay agent message in b, returning its layer
// and the message its Relay Message option encapsulates. When an option
// repeats, its last instance counts.
func decodeRelay(b []byte) (relayLayer, []byte, error) {
	if len(b) < relayHeaderLen {
		return relayLayer{}, nil, fmt.Errorf("%w: relay message %d bytes", ErrShortMessage, len(b))
	}
	if !IsRelay(b) {
		return relayLayer{}, nil, fmt.Errorf("%w: type %v is not a relay message", ErrBadOption, MessageType(b[0]))
	}
	l := relayLayer{hdr: b[:relayHeaderLen]}
	var inner []byte
	rest := b[relayHeaderLen:]
	for len(rest) > 0 {
		if len(rest) < 4 {
			return relayLayer{}, nil, fmt.Errorf("%w: truncated relay option header", ErrBadOption)
		}
		code := binary.BigEndian.Uint16(rest)
		n := int(binary.BigEndian.Uint16(rest[2:]))
		if 4+n > len(rest) {
			return relayLayer{}, nil, fmt.Errorf("%w: relay option %d overruns message", ErrBadOption, code)
		}
		body := rest[4 : 4+n]
		switch code {
		case OptRelayMsg:
			inner = body
		case OptInterfaceID:
			l.iid = body
		}
		rest = rest[4+n:]
	}
	if len(inner) == 0 {
		return relayLayer{}, nil, fmt.Errorf("%w: relay message without Relay Message option", ErrBadOption)
	}
	return l, inner, nil
}

// appendLayer appends a relay layer's header hdr, its Interface-ID
// option when iid is not empty, and the header of its Relay Message
// option, whose length fillLengths sets once the encapsulated message
// is written.
//
//lint:hotpath
func appendLayer(dst []byte, hdr *[relayHeaderLen]byte, iid []byte) []byte {
	dst = append(dst, hdr[:]...)
	if len(iid) > 0 {
		dst = appendOption(dst, OptInterfaceID, iid)
	}
	return append(dst, byte(OptRelayMsg>>8), byte(OptRelayMsg), 0, 0)
}

// fillLengths sets the Relay Message option length of each of the
// levels layers appendLayer wrote, outermost first, at the front of b:
// each encapsulates the rest of b.
//
//lint:hotpath
func fillLengths(b []byte, levels int) {
	off := 0
	for ; levels > 0; levels-- {
		off += relayHeaderLen
		if binary.BigEndian.Uint16(b[off:]) == OptInterfaceID {
			off += 4 + int(binary.BigEndian.Uint16(b[off+2:]))
		}
		binary.BigEndian.PutUint16(b[off+2:], uint16(len(b)-off-4))
		off += 4
	}
}

// LDRA is a Lightweight DHCPv6 Relay Agent (RFC 6221): an access node —
// a DSLAM or OLT — that encapsulates the subscriber's messages with an
// Interface-ID identifying the access loop, without holding any
// addressing itself (link-address stays ::, §5.3.1). Aggregation
// topologies chain one LDRA per aggregation level.
type LDRA struct {
	// InterfaceID is the access-loop identifier stamped into
	// Relay-forward messages this LDRA builds.
	InterfaceID []byte
}

// LDRAChain is an ordered aggregation path from the subscriber to the
// server: Chain[0] is the access node on the subscriber's loop.
type LDRAChain []*LDRA

// NewLDRAChain builds an n-level chain with deterministic interface
// identifiers derived from base (the subscriber's access-loop name).
func NewLDRAChain(base string, n int) LDRAChain {
	chain := make(LDRAChain, 0, n)
	for i := 0; i < n; i++ {
		chain = append(chain, &LDRA{InterfaceID: []byte(fmt.Sprintf("%s/%d", base, i))})
	}
	return chain
}

// Wrap appends to dst the client message req as it leaves the chain:
// encapsulated in one Relay-forward layer per aggregation level,
// innermost LDRA innermost. It writes every layer in one pass, the
// outermost first. The innermost layer's peer-address is peer, the
// address the client message came from; upper levels see the relay,
// not the client, and carry ::. Layer i's hop count is i, so a chain
// deeper than HOP_COUNT_LIMIT is refused.
func (c LDRAChain) Wrap(dst []byte, req *Message, peer netip.Addr) ([]byte, error) {
	if len(c) == 0 {
		return dst, fmt.Errorf("%w: empty LDRA chain", ErrBadOption)
	}
	if len(c) > HopCountLimit {
		return dst, fmt.Errorf("%w: %d levels", ErrHopLimit, len(c))
	}
	start := len(dst)
	for i := len(c) - 1; i >= 0; i-- {
		hdr := [relayHeaderLen]byte{byte(RelayForw), byte(i)}
		if i == 0 && peer.IsValid() {
			a16 := peer.As16()
			copy(hdr[18:], a16[:])
		}
		dst = appendLayer(dst, &hdr, c[i].InterfaceID)
	}
	dst = req.Append(dst)
	fillLengths(dst[start:], len(c))
	return dst, nil
}

// Unwrap decodes b, a Relay-reply on its way down the chain, into m:
// it peels every layer, outermost LDRA first, checking that each is a
// Relay-reply carrying its LDRA's Interface-ID (RFC 6221 §5.3.2: the
// reply is routed back down the access loop the Interface-ID names),
// and decodes the server's message to the client into m.
func (c LDRAChain) Unwrap(m *Message, b []byte) error {
	if len(c) == 0 {
		return fmt.Errorf("%w: empty LDRA chain", ErrBadOption)
	}
	for i := len(c) - 1; i >= 0; i-- {
		l, inner, err := decodeRelay(b)
		if err != nil {
			return err
		}
		if l.typ() != RelayRepl {
			return fmt.Errorf("%w: decapsulating %v", ErrBadOption, l.typ())
		}
		if string(l.iid) != string(c[i].InterfaceID) {
			return fmt.Errorf("%w: interface-id %q does not match LDRA %q",
				ErrBadOption, l.iid, c[i].InterfaceID)
		}
		b = inner
	}
	return m.Decode(b)
}

// HandleRelay processes the wire bytes of a Relay-forward carrying a
// possibly nested client message and returns the wire bytes of the
// mirrored Relay-reply: hop count, addresses, and Interface-ID are
// copied back at every layer so each relay can route the reply down its
// access loop (RFC 8415 §19.2). It decodes the layers and the client
// message into storage the server owns, and writes the reply, every
// layer in one pass, into a buffer the server owns: the reply belongs
// to the server until its next call.
func (s *Server) HandleRelay(b []byte) ([]byte, error) {
	s.layers = s.layers[:0]
	for {
		l, inner, err := decodeRelay(b)
		if err != nil {
			return nil, err
		}
		if l.typ() != RelayForw {
			return nil, fmt.Errorf("dhcp6: HandleRelay on %v", l.typ())
		}
		s.layers = append(s.layers, l)
		b = inner
		if !IsRelay(b) {
			break
		}
	}
	if err := s.relayed.Decode(b); err != nil {
		return nil, err
	}
	rep, err := s.Handle(&s.relayed)
	if err != nil {
		return nil, err
	}
	out := s.relayOut[:0]
	for _, l := range s.layers {
		hdr := [relayHeaderLen]byte(l.hdr)
		hdr[0] = byte(RelayRepl)
		out = appendLayer(out, &hdr, l.iid)
	}
	out = rep.Append(out)
	fillLengths(out, len(s.layers))
	s.relayOut = out
	return out, nil
}
