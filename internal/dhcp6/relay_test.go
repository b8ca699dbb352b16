package dhcp6

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"
)

// TestRelayMessageWireRoundTrip: the RFC 8415 §9 relay codec preserves
// every header field and option through Marshal/UnmarshalRelay,
// including a nested Relay-forward layer.
func TestRelayMessageWireRoundTrip(t *testing.T) {
	inner := &RelayMessage{
		Type:        RelayForw,
		HopCount:    0,
		LinkAddr:    netip.IPv6Unspecified(),
		PeerAddr:    netip.MustParseAddr("fe80::1"),
		InterfaceID: []byte("olt3/port7"),
		Inner:       NewMessage(Solicit, 9, duid(3)).Marshal(),
	}
	outer := &RelayMessage{
		Type:        RelayForw,
		HopCount:    1,
		LinkAddr:    netip.IPv6Unspecified(),
		PeerAddr:    netip.IPv6Unspecified(),
		InterfaceID: []byte("agg1"),
		Inner:       inner.Marshal(),
	}

	wire := outer.Marshal()
	if !IsRelay(wire) {
		t.Fatal("IsRelay = false on a Relay-forward")
	}
	got, err := UnmarshalRelay(wire)
	if err != nil {
		t.Fatalf("UnmarshalRelay: %v", err)
	}
	if got.Type != RelayForw || got.HopCount != 1 {
		t.Errorf("outer header = %v/%d", got.Type, got.HopCount)
	}
	if string(got.InterfaceID) != "agg1" {
		t.Errorf("outer Interface-ID = %q", got.InterfaceID)
	}
	nested, err := UnmarshalRelay(got.Inner)
	if err != nil {
		t.Fatalf("nested UnmarshalRelay: %v", err)
	}
	if nested.PeerAddr != netip.MustParseAddr("fe80::1") || string(nested.InterfaceID) != "olt3/port7" {
		t.Errorf("nested layer = %+v", nested)
	}
	msg, err := Unmarshal(nested.Inner)
	if err != nil {
		t.Fatalf("innermost Unmarshal: %v", err)
	}
	if msg.Type != Solicit || msg.TxnID != 9 {
		t.Errorf("client message = %v/%d", msg.Type, msg.TxnID)
	}
	if !bytes.Equal(nested.Marshal(), inner.Marshal()) {
		t.Error("nested layer does not re-encode byte-identically")
	}

	if _, err := UnmarshalRelay(wire[:20]); err == nil {
		t.Error("UnmarshalRelay accepted a truncated header")
	}
	if _, err := UnmarshalRelay(NewMessage(Solicit, 1, duid(1)).Marshal()); err == nil {
		t.Error("UnmarshalRelay accepted a client message")
	}
}

// TestLDRAChainRapidCommit drives a rapid-commit solicit through a
// two-level LDRA aggregation, the server's recursive relay handling, and
// the reply unwrap — the wire path the BNG relay scenario exercises.
func TestLDRAChainRapidCommit(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	chain := NewLDRAChain("dslam0", 2)

	sol := NewMessage(Solicit, 0x31, duid(4))
	sol.RapidCommit = true
	rm, err := chain.Wrap(sol, netip.MustParseAddr("fe80::4"))
	if err != nil {
		t.Fatalf("Wrap: %v", err)
	}
	if rm.HopCount != 1 {
		t.Errorf("outer hop count = %d, want 1", rm.HopCount)
	}
	if rm.LinkAddr != netip.IPv6Unspecified() {
		t.Errorf("LDRA link-address = %v, want :: (RFC 6221 §5.3.1)", rm.LinkAddr)
	}

	onWire, err := UnmarshalRelay(rm.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.HandleRelay(onWire)
	if err != nil {
		t.Fatalf("HandleRelay: %v", err)
	}
	if rep.Type != RelayRepl || rep.HopCount != rm.HopCount {
		t.Errorf("reply header = %v/%d", rep.Type, rep.HopCount)
	}
	if string(rep.InterfaceID) != string(rm.InterfaceID) {
		t.Errorf("reply Interface-ID %q not mirrored from %q", rep.InterfaceID, rm.InterfaceID)
	}

	msg, err := chain.Unwrap(rep)
	if err != nil {
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
	if _, err := NewLDRAChain("deep", 8).Wrap(sol, netip.IPv6Unspecified()); err != nil {
		t.Errorf("8-level chain refused: %v", err)
	}
	if _, err := NewLDRAChain("deeper", 9).Wrap(sol, netip.IPv6Unspecified()); !errors.Is(err, ErrHopLimit) {
		t.Errorf("9-level chain error = %v, want ErrHopLimit", err)
	}
}

// TestLDRAValidation: replies only decapsulate at the LDRA whose
// Interface-ID they carry, and only Relay-reply messages decapsulate.
func TestLDRAValidation(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	chain := NewLDRAChain("a", 2)

	sol := NewMessage(Solicit, 2, duid(6))
	sol.RapidCommit = true
	rm, err := chain.Wrap(sol, netip.IPv6Unspecified())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := chain[0].Decapsulate(rm); err == nil {
		t.Error("Decapsulate accepted a Relay-forward")
	}

	rep, err := srv.HandleRelay(rm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLDRAChain("b", 2).Unwrap(rep); err == nil {
		t.Error("Unwrap accepted a reply for a different aggregation path")
	}
	if _, err := LDRAChain(nil).Unwrap(rep); err == nil {
		t.Error("empty chain unwrapped a nested reply")
	}
	if _, err := chain.Unwrap(rep); err != nil {
		t.Errorf("matching chain failed to unwrap: %v", err)
	}

	if _, err := srv.HandleRelay(rep); err == nil {
		t.Error("HandleRelay accepted a Relay-reply")
	}
}

// FuzzRelayMessage: arbitrary bytes through the relay codec must never
// panic, and valid parses must re-encode parseably.
func FuzzRelayMessage(f *testing.F) {
	sol := NewMessage(Solicit, 3, duid(7))
	rm, _ := NewLDRAChain("fz", 2).Wrap(sol, netip.MustParseAddr("fe80::7"))
	f.Add(rm.Marshal())
	f.Add(rm.Inner)
	f.Add([]byte{byte(RelayForw)})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := UnmarshalRelay(b)
		if err != nil {
			return
		}
		if _, err := UnmarshalRelay(m.Marshal()); err != nil {
			t.Fatalf("re-encode of a valid parse failed: %v", err)
		}
	})
}
