package dhcp6

import (
	"net/netip"
	"testing"
	"testing/quick"

	"dynamips/internal/netutil"
)

type fakeClock struct{ t int64 }

func (c *fakeClock) Now() int64 { return c.t }

func duid(b byte) DUID { return DUIDLL([6]byte{0xde, 0xad, 0, 0, 0, b}) }

func newTestServer(valid uint32, delegated int, pools ...string) (*Server, *fakeClock) {
	if len(pools) == 0 {
		pools = []string{"2003:0:a000::/40"}
	}
	var ps []netip.Prefix
	for _, p := range pools {
		ps = append(ps, netip.MustParsePrefix(p))
	}
	clk := &fakeClock{}
	srv := NewServer(ServerConfig{
		Pools:        ps,
		DelegatedLen: delegated,
		ValidSeconds: valid,
	}, clk)
	return srv, clk
}

func TestMessageRoundTrip(t *testing.T) {
	m := NewMessage(Reply, 0xabcdef, duid(1))
	m.ServerID = duid(0xff)
	m.IAPDs = []IAPD{{
		IAID: 7, T1: 100, T2: 200,
		Prefixes: []IAPrefix{{
			Preferred: 3600, Valid: 7200,
			Prefix: netip.MustParsePrefix("2003:0:a000:ff00::/56"),
		}},
	}}
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Type != Reply || got.TxnID != 0xabcdef {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.ClientID.String() != duid(1).String() || got.ServerID.String() != duid(0xff).String() {
		t.Errorf("DUID mismatch")
	}
	if len(got.IAPDs) != 1 {
		t.Fatalf("IAPDs = %d", len(got.IAPDs))
	}
	ia := got.IAPDs[0]
	if ia.IAID != 7 || ia.T1 != 100 || ia.T2 != 200 {
		t.Errorf("IA_PD fields: %+v", ia)
	}
	if len(ia.Prefixes) != 1 || ia.Prefixes[0].Prefix != netip.MustParsePrefix("2003:0:a000:ff00::/56") ||
		ia.Prefixes[0].Valid != 7200 || ia.Prefixes[0].Preferred != 3600 {
		t.Errorf("IAPREFIX: %+v", ia.Prefixes)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(txn uint32, iaid, t1, t2, pref, valid uint32, hi uint64) bool {
		p := netip.PrefixFrom(netutil.AddrFrom128(hi&^0xff, 0), 56)
		m := NewMessage(Solicit, txn, duid(3))
		m.IAPDs = []IAPD{{IAID: iaid, T1: t1, T2: t2,
			Prefixes: []IAPrefix{{Preferred: pref, Valid: valid, Prefix: p}}}}
		got, err := Unmarshal(m.Marshal())
		if err != nil || got.TxnID != txn&0xffffff || len(got.IAPDs) != 1 {
			return false
		}
		ia := got.IAPDs[0]
		return ia.IAID == iaid && ia.T1 == t1 && ia.T2 == t2 &&
			len(ia.Prefixes) == 1 && ia.Prefixes[0].Prefix == p &&
			ia.Prefixes[0].Preferred == pref && ia.Prefixes[0].Valid == valid
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{1, 2}); err == nil {
		t.Error("short message accepted")
	}
	// Truncated option header.
	if _, err := Unmarshal([]byte{1, 0, 0, 1, 0, 1}); err == nil {
		t.Error("truncated option header accepted")
	}
	// Option length overrun.
	if _, err := Unmarshal([]byte{1, 0, 0, 1, 0, 1, 0, 200, 0}); err == nil {
		t.Error("overrunning option accepted")
	}
	// IA_PD too short.
	m := []byte{1, 0, 0, 1, 0, 25, 0, 4, 1, 2, 3, 4}
	if _, err := Unmarshal(m); err == nil {
		t.Error("short IA_PD accepted")
	}
}

func TestStatusCodeRoundTrip(t *testing.T) {
	m := NewMessage(Reply, 1, duid(1))
	m.Status = StatusNoPrefixAvail
	m.StatusOK = true
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.StatusOK || got.Status != StatusNoPrefixAvail {
		t.Errorf("status = %d, ok=%v", got.Status, got.StatusOK)
	}
}

func TestSARR(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	b, err := srv.Acquire(duid(1), 1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if b.Prefix.Bits() != 56 {
		t.Errorf("delegated /%d, want /56", b.Prefix.Bits())
	}
	if !netutil.ContainsPrefix(netip.MustParsePrefix("2003:0:a000::/40"), b.Prefix) {
		t.Errorf("delegation %v outside pool", b.Prefix)
	}
	b2, err := srv.Acquire(duid(2), 2)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if b2.Prefix == b.Prefix {
		t.Error("two CPEs share one delegation")
	}
	if heldCount(srv) != 2 {
		t.Errorf("held bindings = %d", heldCount(srv))
	}
}

// TestRenewAfterLoseStateFails: after the server loses its state, a CPE
// that renews by naming its delegation in a Request, as Acquire's does,
// gets NoBinding, and acquiring again moves it to a fresh prefix.
func TestRenewAfterLoseStateFails(t *testing.T) {
	srv, clk := newTestServer(86400, 56)
	b, _ := srv.Acquire(duid(1), 1)
	srv.LoseState()
	clk.t += 10
	req := NewMessage(Request, 2, duid(1))
	req.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Prefix: b.Prefix}}}}
	rep, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle(Request): %v", err)
	}
	if ia := rep.IAPDs[0]; len(ia.Prefixes) != 0 || ia.Status != StatusNoBinding {
		t.Fatalf("renew after LoseState: status %d with %d prefixes, want NoBinding", ia.Status, len(ia.Prefixes))
	}
	b2, err := srv.Acquire(duid(1), 3)
	if err != nil {
		t.Fatalf("re-acquire: %v", err)
	}
	if b2.Prefix == b.Prefix {
		t.Error("prefix unchanged after server state loss")
	}
}

// TestAcquireAllocs pins a warmed server's delegation paths at zero
// allocations: a client that releases and acquires again, and a
// reassignment. Its record keeps the DUID's bytes as a string, so the
// server converts the DUID only on first sight.
func TestAcquireAllocs(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	for i := byte(1); i <= 8; i++ {
		if _, err := srv.Acquire(duid(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := duid(3)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := srv.Acquire(d, 7); err != nil {
			t.Fatal(err)
		}
		srv.ReleaseBinding(d)
		if _, err := srv.Acquire(d, 8); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Acquire, ReleaseBinding, Acquire: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := srv.Reassign(d, 9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reassign: %v allocations, want 0", n)
	}
}

// TestNonStickyMovesAfterRelease: the server forgets a released
// delegation, so once another client takes the prefix off the free list
// the returning client gets a different one.
func TestNonStickyMovesAfterRelease(t *testing.T) {
	srv, _ := newTestServer(3600, 56)
	b, _ := srv.Acquire(duid(1), 1)
	srv.ReleaseBinding(duid(1))
	if b2, _ := srv.Acquire(duid(2), 2); b2.Prefix != b.Prefix {
		t.Fatalf("next client got %v, want the released %v", b2.Prefix, b.Prefix)
	}
	b3, err := srv.Acquire(duid(1), 3)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if b3.Prefix == b.Prefix {
		t.Error("non-sticky server re-delegated a taken prefix")
	}
}

func TestRenumberMovesEveryone(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	b1, _ := srv.Acquire(duid(1), 1)
	b2, _ := srv.Acquire(duid(2), 2)
	srv.Renumber()
	n1, _ := srv.Acquire(duid(1), 3)
	n2, _ := srv.Acquire(duid(2), 4)
	if n1.Prefix == b1.Prefix || n2.Prefix == b2.Prefix {
		t.Errorf("renumbering kept a prefix: %v->%v, %v->%v", b1.Prefix, n1.Prefix, b2.Prefix, n2.Prefix)
	}
}

func TestPoolExhaustion(t *testing.T) {
	// /62 pool delegating /64s: 4 delegations.
	srv, _ := newTestServer(3600, 64, "2001:db8:0:4::/62")
	for i := byte(1); i <= 4; i++ {
		if _, err := srv.Acquire(duid(i), uint32(i)); err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
	}
	if _, err := srv.Acquire(duid(5), 5); err == nil {
		t.Fatal("5th delegation from /62 succeeded")
	}
	if srv.Capacity() != 4 {
		t.Errorf("Capacity = %d", srv.Capacity())
	}
}

func TestReleaseReturnsPrefix(t *testing.T) {
	srv, _ := newTestServer(3600, 64, "2001:db8:0:4::/62")
	b, _ := srv.Acquire(duid(1), 1)
	srv.ReleaseBinding(duid(1))
	// The freed delegation is reusable.
	seen := map[netip.Prefix]bool{b.Prefix: false}
	for i := byte(2); i <= 5; i++ {
		nb, err := srv.Acquire(duid(i), uint32(i))
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		seen[nb.Prefix] = true
	}
	if !seen[b.Prefix] {
		t.Error("released prefix never reused")
	}
}

func TestRequestWithoutOfferRejected(t *testing.T) {
	srv, _ := newTestServer(3600, 56)
	req := NewMessage(Request, 1, duid(9))
	req.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{
		Prefix: netip.MustParsePrefix("2003:0:a000:aa00::/56"), Valid: 60, Preferred: 60,
	}}}}
	rep, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if len(rep.IAPDs) != 1 || rep.IAPDs[0].Status != StatusNoBinding {
		t.Errorf("unoffered request reply: %+v", rep.IAPDs)
	}
}

func TestMissingClientIDRejected(t *testing.T) {
	srv, _ := newTestServer(3600, 56)
	if _, err := srv.Handle(&Message{Type: Solicit, TxnID: 1}); err == nil {
		t.Error("request without client ID accepted")
	}
}

func TestServerConfigPanics(t *testing.T) {
	pool6 := []netip.Prefix{netip.MustParsePrefix("2001:db8::/40")}
	for name, cfg := range map[string]ServerConfig{
		"no pools":       {DelegatedLen: 56, ValidSeconds: 1},
		"zero lifetime":  {Pools: pool6, DelegatedLen: 56},
		"v4 pool":        {Pools: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}, DelegatedLen: 24, ValidSeconds: 1},
		"delegation>64":  {Pools: pool6, DelegatedLen: 96, ValidSeconds: 1},
		"delegation<...": {Pools: pool6, DelegatedLen: 16, ValidSeconds: 1},
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

func TestDUIDLL(t *testing.T) {
	d := DUIDLL([6]byte{1, 2, 3, 4, 5, 6})
	if len(d) != 10 {
		t.Fatalf("DUID len = %d", len(d))
	}
	if d.String() != "00030001010203040506" {
		t.Errorf("DUID = %s", d)
	}
}

func TestMessageTypeString(t *testing.T) {
	if Solicit.String() != "SOLICIT" || Reply.String() != "REPLY" {
		t.Error("type names wrong")
	}
	if MessageType(200).String() != "TYPE(200)" {
		t.Error("unknown type name wrong")
	}
}
