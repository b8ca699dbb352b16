package dhcp4

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

type fakeClock struct{ t int64 }

func (c *fakeClock) Now() int64 { return c.t }

func hw(b byte) HWAddr { return HWAddr{0xde, 0xad, 0, 0, 0, b} }

func newTestServer(lease uint32, sticky bool, pools ...string) (*Server, *fakeClock) {
	if len(pools) == 0 {
		pools = []string{"100.64.10.0/24"}
	}
	var ps []netip.Prefix
	for _, p := range pools {
		ps = append(ps, netip.MustParsePrefix(p))
	}
	clk := &fakeClock{}
	srv := NewServer(ServerConfig{
		Pools:        ps,
		LeaseSeconds: lease,
		Sticky:       sticky,
		ServerID:     netip.MustParseAddr("100.64.0.1"),
	}, clk)
	return srv, clk
}

func TestMessageRoundTrip(t *testing.T) {
	m := NewMessage(Request, 0xdeadbeef, hw(7))
	m.CIAddr = netip.MustParseAddr("203.0.113.9")
	m.Secs = 12
	m.SetAddrOption(OptRequestedIP, netip.MustParseAddr("203.0.113.10"))
	m.SetU32Option(OptLeaseTime, 86400)

	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.XID != m.XID || got.CHAddr != m.CHAddr || got.CIAddr != m.CIAddr || got.Secs != 12 {
		t.Errorf("header mismatch: %+v vs %+v", got, m)
	}
	if got.Type() != Request {
		t.Errorf("Type = %v", got.Type())
	}
	if a, ok := got.AddrOption(OptRequestedIP); !ok || a != netip.MustParseAddr("203.0.113.10") {
		t.Errorf("requested IP = %v, %v", a, ok)
	}
	if v, ok := got.U32Option(OptLeaseTime); !ok || v != 86400 {
		t.Errorf("lease = %d, %v", v, ok)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(xid uint32, secs uint16, flags uint16, h [6]byte, lease uint32) bool {
		m := NewMessage(Discover, xid, HWAddr(h))
		m.Secs = secs
		m.Flags = flags
		m.SetU32Option(OptLeaseTime, lease)
		got, err := Unmarshal(m.Marshal())
		if err != nil {
			return false
		}
		gl, _ := got.U32Option(OptLeaseTime)
		return got.XID == xid && got.Secs == secs && got.Flags == flags &&
			got.CHAddr == HWAddr(h) && gl == lease && got.Type() == Discover
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short message accepted")
	}
	m := NewMessage(Discover, 1, hw(1)).Marshal()
	m[headerLen] = 0 // corrupt cookie
	if _, err := Unmarshal(m); err == nil {
		t.Error("bad cookie accepted")
	}
	m2 := NewMessage(Discover, 1, hw(1)).Marshal()
	m2 = m2[:len(m2)-1] // strip end option
	if _, err := Unmarshal(m2); err == nil {
		t.Error("missing end option accepted")
	}
	m3 := NewMessage(Discover, 1, hw(1)).Marshal()
	m3[headerLen+4+1] = 200 // option length overruns
	if _, err := Unmarshal(m3); err == nil {
		t.Error("overrunning option accepted")
	}
}

func TestUnmarshalSkipsPadding(t *testing.T) {
	m := NewMessage(Discover, 7, hw(1)).Marshal()
	// Insert pad bytes before the options by rebuilding: header+cookie+pads+opts.
	padded := append([]byte{}, m[:headerLen+4]...)
	padded = append(padded, 0, 0, 0)
	padded = append(padded, m[headerLen+4:]...)
	got, err := Unmarshal(padded)
	if err != nil {
		t.Fatalf("Unmarshal padded: %v", err)
	}
	if got.Type() != Discover {
		t.Errorf("Type = %v", got.Type())
	}
}

func TestMessageTypeString(t *testing.T) {
	if Discover.String() != "DISCOVER" || NAK.String() != "NAK" {
		t.Error("message type names wrong")
	}
	if MessageType(99).String() != "TYPE(99)" {
		t.Errorf("unknown type = %q", MessageType(99).String())
	}
}

func TestHWAddrString(t *testing.T) {
	if got := hw(0xab).String(); got != "de:ad:00:00:00:ab" {
		t.Errorf("HWAddr.String = %q", got)
	}
}

func TestDORA(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	l, err := srv.Acquire(hw(1), 100)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if !netip.MustParsePrefix("100.64.10.0/24").Contains(l.Addr) {
		t.Errorf("lease %v outside pool", l.Addr)
	}
	if heldCount(srv) != 1 {
		t.Errorf("held leases = %d", heldCount(srv))
	}
	// A second client gets a different address.
	l2, err := srv.Acquire(hw(2), 101)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l2.Addr == l.Addr {
		t.Error("two clients share one address")
	}
}

// TestRenewKeepsAddress: a client renews by naming its leased address
// in the requested-IP option, as Acquire's Request does; the server
// ACKs the same address for a full lease.
func TestRenewKeepsAddress(t *testing.T) {
	srv, clk := newTestServer(3600, true)
	l, _ := srv.Acquire(hw(1), 1)
	clk.t += 1800
	req := NewMessage(Request, 2, hw(1))
	req.SetAddrOption(OptRequestedIP, l.Addr)
	ack, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle(renew): %v", err)
	}
	if ack.Type() != ACK {
		t.Fatalf("renewal got %v, want ACK", ack.Type())
	}
	if ack.YIAddr != l.Addr {
		t.Errorf("renew moved address %v -> %v", l.Addr, ack.YIAddr)
	}
	if lease, _ := ack.U32Option(OptLeaseTime); lease != 3600 {
		t.Errorf("renewed lease = %d s, want 3600", lease)
	}
}

// releaseInTurn has hw(1) and hw(2) acquire, then release in that
// order, which leaves hw(2)'s address on top of the LIFO free list. It
// returns both addresses and hw(1)'s next lease.
func releaseInTurn(t *testing.T, srv *Server) (a1, a2, again netip.Addr) {
	t.Helper()
	l1, _ := srv.Acquire(hw(1), 1)
	l2, _ := srv.Acquire(hw(2), 2)
	for i, h := range []HWAddr{hw(1), hw(2)} {
		if _, err := srv.Handle(NewMessage(Release, uint32(3+i), h)); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	l3, err := srv.Acquire(hw(1), 5)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return l1.Addr, l2.Addr, l3.Addr
}

// TestStickyReofferAfterRelease: a sticky server re-offers a returning
// client the address it released, although another address sits on top
// of the free list.
func TestStickyReofferAfterRelease(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	a1, _, again := releaseInTurn(t, srv)
	if again != a1 {
		t.Errorf("sticky server moved returning client %v -> %v", a1, again)
	}
}

// TestStaleReleaseKeepsOtherLease: a sticky client's repeated Release,
// after another client took its remembered address, must not free the
// other client's live lease.
func TestStaleReleaseKeepsOtherLease(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	release := func(h HWAddr) {
		t.Helper()
		if _, err := srv.Handle(NewMessage(Release, 9, h)); err != nil {
			t.Fatalf("Release: %v", err)
		}
	}
	l1, _ := srv.Acquire(hw(1), 1)
	release(hw(1))
	l2, err := srv.Acquire(hw(2), 2)
	if err != nil || l2.Addr != l1.Addr {
		t.Fatalf("hw2 got %v, %v; want hw1's released %v", l2.Addr, err, l1.Addr)
	}
	release(hw(1))
	l3, err := srv.Acquire(hw(3), 3)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if l3.Addr == l2.Addr {
		t.Errorf("hw3 given %v, which hw2 still holds", l3.Addr)
	}
}

// TestNonStickyMovesAfterRelease: a non-sticky server forgets a released
// lease, so the returning client gets the top of the free list: the
// address released last.
func TestNonStickyMovesAfterRelease(t *testing.T) {
	srv, _ := newTestServer(3600, false)
	a1, a2, again := releaseInTurn(t, srv)
	if again != a2 {
		t.Errorf("non-sticky server gave returning client %v, want %v (released last; its own was %v)", again, a2, a1)
	}
}

func TestRequestUnofferedNAKs(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	req := NewMessage(Request, 9, hw(9))
	req.SetAddrOption(OptRequestedIP, netip.MustParseAddr("100.64.10.77"))
	rep, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if rep.Type() != NAK {
		t.Errorf("unoffered request got %v, want NAK", rep.Type())
	}
}

func TestRequestConflictNAKs(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	l1, _ := srv.Acquire(hw(1), 1)
	// hw(2) tries to claim hw(1)'s active address via a forged renewal.
	req := NewMessage(Request, 2, hw(2))
	req.SetAddrOption(OptRequestedIP, l1.Addr)
	rep, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if rep.Type() != NAK {
		t.Errorf("conflicting request got %v, want NAK", rep.Type())
	}
}

func TestReleaseFreesAddress(t *testing.T) {
	srv, _ := newTestServer(3600, false, "100.64.10.0/30") // tiny pool: 4 addrs
	l1, _ := srv.Acquire(hw(1), 1)
	rel := NewMessage(Release, 2, hw(1))
	rel.CIAddr = l1.Addr
	if _, err := srv.Handle(rel); err != nil {
		t.Fatalf("Release: %v", err)
	}
	// Fill the rest of the pool plus the released address.
	for i := byte(2); i <= 5; i++ {
		if _, err := srv.Acquire(hw(i), uint32(i)); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
	}
	if _, err := srv.Acquire(hw(6), 6); err == nil {
		t.Error("exhausted pool still allocated")
	}
}

func TestPoolExhaustion(t *testing.T) {
	srv, clk := newTestServer(100, false, "100.64.10.0/30")
	for i := byte(1); i <= 4; i++ {
		if _, err := srv.Acquire(hw(i), uint32(i)); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
	}
	if _, err := srv.Acquire(hw(5), 5); err == nil {
		t.Fatal("5th client on /30 pool succeeded")
	}
	// Leases outlive their advertised lifetime: only a release frees
	// an address.
	clk.t += 200
	if _, err := srv.Acquire(hw(5), 6); err == nil {
		t.Fatal("5th client got an address after the leases' lifetime, with none released")
	}
	if _, err := srv.Handle(NewMessage(Release, 7, hw(2))); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := srv.Acquire(hw(5), 8); err != nil {
		t.Errorf("Acquire after a release: %v", err)
	}
	if srv.Capacity() != 4 {
		t.Errorf("Capacity = %d", srv.Capacity())
	}
}

func TestMultiplePools(t *testing.T) {
	srv, _ := newTestServer(3600, false, "100.64.10.0/31", "100.64.20.0/31")
	seen := map[netip.Addr]bool{}
	for i := byte(1); i <= 4; i++ {
		l, err := srv.Acquire(hw(i), uint32(i))
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		seen[l.Addr] = true
	}
	if len(seen) != 4 {
		t.Errorf("allocated %d distinct addresses, want 4", len(seen))
	}
	inSecond := 0
	for a := range seen {
		if netip.MustParsePrefix("100.64.20.0/31").Contains(a) {
			inSecond++
		}
	}
	if inSecond != 2 {
		t.Errorf("second pool served %d addresses, want 2", inSecond)
	}
}

func TestServerConfigPanics(t *testing.T) {
	for name, cfg := range map[string]ServerConfig{
		"no pools":   {LeaseSeconds: 1},
		"zero lease": {Pools: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}},
		"v6 pool":    {Pools: []netip.Prefix{netip.MustParsePrefix("2001:db8::/64")}, LeaseSeconds: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewServer did not panic", name)
				}
			}()
			NewServer(cfg, &fakeClock{})
		}()
	}
}

func TestMarshalDeterministic(t *testing.T) {
	m := NewMessage(Offer, 3, hw(1))
	m.SetAddrOption(OptServerID, netip.MustParseAddr("100.64.0.1"))
	m.SetU32Option(OptLeaseTime, 60)
	a, b := m.Marshal(), m.Marshal()
	if !bytes.Equal(a, b) {
		t.Error("Marshal is not deterministic")
	}
}
