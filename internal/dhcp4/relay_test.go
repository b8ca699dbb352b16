package dhcp4

import (
	"errors"
	"net/netip"
	"testing"
)

func relayChain(t *testing.T, n int) RelayChain {
	t.Helper()
	chain, err := NewRelayChain(netip.MustParseAddr("198.51.100.1"), n)
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

// TestRelayChainDORA runs a full wire-level DORA through a two-hop
// aggregation chain: the innermost relay stamps giaddr, the server
// echoes it, and the reply routes back down the same chain.
func TestRelayChainDORA(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	chain := relayChain(t, 2)
	inner := chain[0].GIAddr

	disc := NewMessage(Discover, 0x11, hw(1))
	if err := chain.Forward(disc); err != nil {
		t.Fatalf("Forward(discover): %v", err)
	}

	// The server sees the relayed request over the wire codec.
	onWire, err := Unmarshal(disc.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	offer, err := srv.Handle(onWire)
	if err != nil {
		t.Fatalf("Handle(discover): %v", err)
	}
	if offer.GIAddr != inner {
		t.Errorf("offer giaddr = %v, want %v (RFC 2131 §4.1 echo)", offer.GIAddr, inner)
	}
	if err := chain.Return(offer); err != nil {
		t.Fatalf("Return(offer): %v", err)
	}

	req := NewMessage(Request, 0x11, hw(1))
	req.SetAddrOption(OptRequestedIP, offer.YIAddr)
	if err := chain.Forward(req); err != nil {
		t.Fatal(err)
	}
	ack, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle(request): %v", err)
	}
	if ack.Type() != ACK {
		t.Fatalf("reply = %v, want ACK", ack.Type())
	}
	if err := chain.Return(ack); err != nil {
		t.Fatalf("Return(ack): %v", err)
	}
	if heldCount(srv) != 1 {
		t.Errorf("held leases = %d, want 1", heldCount(srv))
	}
}

// TestRelayChainInPlace: a chain stamps the message it is given, with no
// copy. Over two hops Forward leaves the hop count at 2 and giaddr at
// the innermost relay's gateway, Return checks the server's reply
// without touching it, and neither allocates.
func TestRelayChainInPlace(t *testing.T) {
	chain := relayChain(t, 2)
	inner := chain[0].GIAddr
	req := NewMessage(Discover, 0x22, hw(7))
	if err := chain.Forward(req); err != nil {
		t.Fatal(err)
	}
	if req.Hops != 2 || req.GIAddr != inner {
		t.Errorf("forwarded request: hops %d giaddr %v, want 2 and %v", req.Hops, req.GIAddr, inner)
	}
	rep := NewMessage(Offer, 0x22, hw(7))
	rep.GIAddr = inner
	want := *rep
	if err := chain.Return(rep); err != nil {
		t.Fatal(err)
	}
	if rep.Hops != want.Hops || rep.GIAddr != want.GIAddr || rep.YIAddr != want.YIAddr {
		t.Errorf("Return changed the reply: %+v, was %+v", *rep, want)
	}

	allocs := testing.AllocsPerRun(100, func() {
		req.Hops, req.GIAddr = 0, netip.IPv4Unspecified()
		if err := chain.Forward(req); err != nil {
			t.Fatal(err)
		}
		if err := chain.Return(rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Forward+Return allocate %.0f times per exchange, want 0", allocs)
	}
}

// TestRelayGiaddrFirstHopOnly: later hops must preserve the giaddr the
// innermost relay stamped (RFC 1542 §4.1.1).
func TestRelayGiaddrFirstHopOnly(t *testing.T) {
	chain := relayChain(t, 3)
	fwd := NewMessage(Discover, 1, hw(2))
	if err := chain.Forward(fwd); err != nil {
		t.Fatal(err)
	}
	if fwd.GIAddr != chain[0].GIAddr {
		t.Errorf("giaddr = %v, want %v", fwd.GIAddr, chain[0].GIAddr)
	}
	for i, r := range chain {
		want := netip.MustParseAddr("198.51.100.1").As4()
		want[3] += byte(i)
		if r.GIAddr != netip.AddrFrom4(want) {
			t.Errorf("relay %d gateway = %v", i, r.GIAddr)
		}
	}
}

// TestRelayHopLimit: the RFC 1542 hard cap of 16 hops discards the
// message, and a per-relay MaxHops tightens it.
func TestRelayHopLimit(t *testing.T) {
	long := relayChain(t, 17)
	if err := long.Forward(NewMessage(Discover, 1, hw(3))); !errors.Is(err, ErrHopLimit) {
		t.Errorf("17-hop chain error = %v, want ErrHopLimit", err)
	}
	if err := relayChain(t, 16).Forward(NewMessage(Discover, 1, hw(3))); err != nil {
		t.Errorf("16-hop chain refused: %v", err)
	}

	tight := &Relay{GIAddr: netip.MustParseAddr("198.51.100.9"), MaxHops: 2}
	m := NewMessage(Discover, 1, hw(4))
	m.Hops = 2
	if err := tight.Forward(m); !errors.Is(err, ErrHopLimit) {
		t.Errorf("MaxHops=2 with 2 hops error = %v, want ErrHopLimit", err)
	}
	if m.Hops != 2 {
		t.Errorf("a refused message's hops moved to %d", m.Hops)
	}
}

// TestRelayValidation: relays refuse wrong-direction messages and
// replies addressed to another relay's gateway.
func TestRelayValidation(t *testing.T) {
	r := &Relay{GIAddr: netip.MustParseAddr("198.51.100.1")}

	rep := NewMessage(Offer, 1, hw(5)) // Op is OpReply
	if err := r.Forward(rep); err == nil {
		t.Error("Forward accepted a server-to-client reply")
	}
	req := NewMessage(Discover, 1, hw(5))
	if err := r.Return(req); err == nil {
		t.Error("Return accepted a client-to-server request")
	}

	stray := NewMessage(Offer, 1, hw(5))
	stray.GIAddr = netip.MustParseAddr("198.51.100.200")
	if err := r.Return(stray); err == nil {
		t.Error("Return accepted a reply stamped for a different relay")
	}
}

// TestRelayNAKRoutesBack: a NAK (the outage-driven renumbering signal)
// carries the echoed giaddr, so it survives the return path too.
func TestRelayNAKRoutesBack(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	chain := relayChain(t, 2)

	req := NewMessage(Request, 7, hw(6))
	req.SetAddrOption(OptRequestedIP, netip.MustParseAddr("100.64.10.250"))
	if err := chain.Forward(req); err != nil {
		t.Fatal(err)
	}
	rep, err := srv.Handle(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Type() != NAK {
		t.Fatalf("unoffered request got %v, want NAK", rep.Type())
	}
	if err := chain.Return(rep); err != nil {
		t.Errorf("NAK failed the return path: %v", err)
	}
}
