package dhcp6

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
)

// relayLayerBytes builds one Relay-forward or Relay-reply layer the
// plain way, option by option around an inner message that is already
// encoded: the layout RFC 8415 §9 gives, and what a relay that
// encapsulates hop by hop sends.
func relayLayerBytes(mt MessageType, hop byte, peer netip.Addr, iid, inner []byte) []byte {
	b := make([]byte, relayHeaderLen)
	b[0], b[1] = byte(mt), hop
	a16 := peer.As16()
	copy(b[18:], a16[:])
	if len(iid) > 0 {
		b = appendOption(b, OptInterfaceID, iid)
	}
	return appendOption(b, OptRelayMsg, inner)
}

// TestRelayMessageWireRoundTrip: the chain writes all its Relay-forward
// layers in one pass, and the bytes are the nested layout a hop-by-hop
// encapsulation sends — innermost layer hop 0 with the client's peer
// address, the next hop 1 with ::, each with its LDRA's Interface-ID —
// and decode back layer by layer to the client message.
func TestRelayMessageWireRoundTrip(t *testing.T) {
	chain := LDRAChain{{InterfaceID: []byte("olt3/port7")}, {InterfaceID: []byte("agg1")}}
	sol := NewMessage(Solicit, 9, duid(3))
	peer := netip.MustParseAddr("fe80::1")
	wire, err := chain.Wrap([]byte("prefix"), sol, peer)
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	inner := relayLayerBytes(RelayForw, 0, peer, []byte("olt3/port7"), sol.Marshal())
	want := relayLayerBytes(RelayForw, 1, netip.IPv6Unspecified(), []byte("agg1"), inner)
	if !bytes.HasPrefix(wire, []byte("prefix")) || !bytes.Equal(wire[len("prefix"):], want) {
		t.Fatalf("Wrap appended\n%x\nwant\n%x", wire, want)
	}
	wire = wire[len("prefix"):]
	if !IsRelay(wire) {
		t.Fatal("IsRelay = false on a Relay-forward")
	}

	outer, nested, err := decodeRelay(wire)
	if err != nil {
		t.Fatalf("decodeRelay: %v", err)
	}
	if outer.typ() != RelayForw || outer.hdr[1] != 1 || string(outer.iid) != "agg1" {
		t.Errorf("outer layer = %v/%d/%q", outer.typ(), outer.hdr[1], outer.iid)
	}
	in, msg, err := decodeRelay(nested)
	if err != nil {
		t.Fatalf("nested decodeRelay: %v", err)
	}
	if netip.AddrFrom16([16]byte(in.hdr[18:34])) != peer || string(in.iid) != "olt3/port7" {
		t.Errorf("nested layer = %x / %q", in.hdr, in.iid)
	}
	m, err := Unmarshal(msg)
	if err != nil {
		t.Fatalf("innermost Unmarshal: %v", err)
	}
	if m.Type != Solicit || m.TxnID != 9 {
		t.Errorf("client message = %v/%d", m.Type, m.TxnID)
	}

	if _, _, err := decodeRelay(wire[:20]); err == nil {
		t.Error("decodeRelay accepted a truncated header")
	}
	if _, _, err := decodeRelay(sol.Marshal()); err == nil {
		t.Error("decodeRelay accepted a client message")
	}
	if _, _, err := decodeRelay(relayLayerBytes(RelayForw, 0, peer, nil, nil)); err == nil {
		t.Error("decodeRelay accepted an empty Relay Message option")
	}
}

// TestLDRAChainRapidCommit drives a rapid-commit solicit through a
// two-level LDRA aggregation, the server's relay handling, and the
// reply unwrap — the wire path the BNG relay scenario exercises.
func TestLDRAChainRapidCommit(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	chain := NewLDRAChain("dslam0", 2)

	sol := NewMessage(Solicit, 0x31, duid(4))
	sol.RapidCommit = true
	wire, err := chain.Wrap(nil, sol, netip.MustParseAddr("fe80::4"))
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	fwd, _, err := decodeRelay(wire)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.hdr[1] != 1 {
		t.Errorf("outer hop count = %d, want 1", fwd.hdr[1])
	}
	if netip.AddrFrom16([16]byte(fwd.hdr[2:18])) != netip.IPv6Unspecified() {
		t.Errorf("LDRA link-address = %x, want :: (RFC 6221 §5.3.1)", fwd.hdr[2:18])
	}

	rep, err := srv.HandleRelay(wire)
	if err != nil {
		t.Fatalf("HandleRelay: %v", err)
	}
	// Every layer of the reply mirrors its Relay-forward layer.
	for fb, rb, level := wire, rep, 0; level < 2; level++ {
		f, fin, err := decodeRelay(fb)
		if err != nil {
			t.Fatal(err)
		}
		r, rin, err := decodeRelay(rb)
		if err != nil {
			t.Fatalf("reply level %d: %v", level, err)
		}
		if r.typ() != RelayRepl || !bytes.Equal(r.hdr[1:], f.hdr[1:]) {
			t.Errorf("reply level %d header %x, want a Relay-reply mirroring %x", level, r.hdr, f.hdr)
		}
		if string(r.iid) != string(f.iid) {
			t.Errorf("reply level %d Interface-ID %q not mirrored from %q", level, r.iid, f.iid)
		}
		fb, rb = fin, rin
	}

	var msg Message
	if err := chain.Unwrap(&msg, rep); err != nil {
		t.Fatalf("Unwrap: %v", err)
	}
	if msg.Type != Reply || !msg.RapidCommit {
		t.Fatalf("unwrapped = %v (rapid=%v)", msg.Type, msg.RapidCommit)
	}
	if len(msg.IAPDs) != 1 || len(msg.IAPDs[0].Prefixes) != 1 {
		t.Fatalf("no delegation through the relay path: %+v", msg.IAPDs)
	}
	if heldCount(srv) != 1 {
		t.Errorf("held bindings = %d, want 1", heldCount(srv))
	}
}

// TestLDRAHopLimit: HOP_COUNT_LIMIT (8) bounds the aggregation depth.
func TestLDRAHopLimit(t *testing.T) {
	sol := NewMessage(Solicit, 1, duid(5))
	if _, err := NewLDRAChain("deep", 8).Wrap(nil, sol, netip.IPv6Unspecified()); err != nil {
		t.Errorf("8-level chain refused: %v", err)
	}
	if _, err := NewLDRAChain("deeper", 9).Wrap(nil, sol, netip.IPv6Unspecified()); !errors.Is(err, ErrHopLimit) {
		t.Errorf("9-level chain error = %v, want ErrHopLimit", err)
	}
}

// TestLDRAValidation: replies only unwrap through the chain whose
// Interface-IDs they carry, and only Relay-reply messages unwrap.
func TestLDRAValidation(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	chain := NewLDRAChain("a", 2)

	sol := NewMessage(Solicit, 2, duid(6))
	sol.RapidCommit = true
	fwd, err := chain.Wrap(nil, sol, netip.IPv6Unspecified())
	if err != nil {
		t.Fatal(err)
	}
	var msg Message
	if err := chain.Unwrap(&msg, fwd); err == nil {
		t.Error("Unwrap accepted a Relay-forward")
	}

	rep, err := srv.HandleRelay(fwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewLDRAChain("b", 2).Unwrap(&msg, rep); err == nil {
		t.Error("Unwrap accepted a reply for a different aggregation path")
	}
	if err := LDRAChain(nil).Unwrap(&msg, rep); err == nil {
		t.Error("empty chain unwrapped a nested reply")
	}
	if err := chain.Unwrap(&msg, rep); err != nil {
		t.Errorf("matching chain failed to unwrap: %v", err)
	}

	if _, err := srv.HandleRelay(rep); err == nil {
		t.Error("HandleRelay accepted a Relay-reply")
	}
}

// FuzzRelayMessage: arbitrary bytes through the relay codec must never
// panic. A layer that decodes re-encodes to one that decodes the same.
// Unwrapping into a message that held another reply gives what
// unwrapping into a fresh one gives: the same error, or the same bytes
// from Append, which keeps whatever dst already held. The server's
// relay handling must not panic either.
func FuzzRelayMessage(f *testing.F) {
	chain := NewLDRAChain("fz", 2)
	sol := NewMessage(Solicit, 3, duid(7))
	sol.RapidCommit = true
	fwd, _ := chain.Wrap(nil, sol, netip.MustParseAddr("fe80::7"))
	seedSrv, _ := newTestServer(86400, 56)
	seedRep, _ := seedSrv.HandleRelay(fwd)
	seedRep = bytes.Clone(seedRep)
	f.Add(fwd)
	f.Add(seedRep)
	_, inner, _ := decodeRelay(fwd)
	f.Add(inner)
	f.Add([]byte{byte(RelayForw)})
	f.Fuzz(func(t *testing.T, b []byte) {
		if l, inner, err := decodeRelay(b); err == nil {
			hdr := [relayHeaderLen]byte(l.hdr)
			re := append(appendLayer(nil, &hdr, l.iid), inner...)
			fillLengths(re, 1)
			l2, inner2, err := decodeRelay(re)
			if err != nil {
				t.Fatalf("re-encode of a valid layer failed: %v", err)
			}
			if !bytes.Equal(l2.hdr, l.hdr) || !bytes.Equal(l2.iid, l.iid) || !bytes.Equal(inner2, inner) {
				t.Fatalf("re-encoded layer decodes to %x/%q/%x, want %x/%q/%x", l2.hdr, l2.iid, inner2, l.hdr, l.iid, inner)
			}
		}

		var fresh, reused Message
		if err := chain.Unwrap(&reused, seedRep); err != nil {
			t.Fatalf("seed reply: %v", err)
		}
		errFresh, errReused := chain.Unwrap(&fresh, b), chain.Unwrap(&reused, b)
		if (errFresh == nil) != (errReused == nil) || (errFresh != nil && errFresh.Error() != errReused.Error()) {
			t.Fatalf("unwrap into a fresh message: %v; into a reused one: %v", errFresh, errReused)
		}
		if errFresh == nil {
			want := fresh.Marshal()
			if got := reused.Append([]byte("pre")); string(got) != "pre"+string(want) {
				t.Fatalf("reused message appends %x, fresh one marshals %x", got, want)
			}
		}

		srv, _ := newTestServer(86400, 56)
		srv.HandleRelay(b) //nolint:errcheck // errors are expected
	})
}
