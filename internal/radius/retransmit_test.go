package radius

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"dynamips/internal/faultnet"
)

func TestClientRetransmitterSchedule(t *testing.T) {
	rt := NewRetransmitter(nil)
	want := []int64{3_000, 6_000, 12_000, 24_000}
	for i, w := range want {
		wait, more := rt.Next()
		if wait != w {
			t.Fatalf("wait %d = %d ms, want %d", i, wait, w)
		}
		if more != (i < len(want)-1) {
			t.Fatalf("wait %d reported more=%v", i, more)
		}
	}
}

// accessReq builds an Access-Request with a distinctive authenticator.
func accessReq(id byte, auth byte, user string) *Packet {
	req := New(AccessRequest, id)
	req.Authenticator = [16]byte{auth, 1, 2, 3}
	req.AddString(AttrUserName, user)
	return req
}

// TestDuplicateAccessRequestIsIdempotent pins the RFC 5080 §2.2.2 fix: a
// retransmitted Access-Request (same Identifier and Request
// Authenticator) must return the same Access-Accept — same
// Framed-IP-Address, same Session-Timeout — without allocating a second
// session or resetting the first one.
func TestDuplicateAccessRequestIsIdempotent(t *testing.T) {
	s := newTestServer(86400, false)
	req := accessReq(7, 0xaa, "dup-user")

	first, err := s.Handle(req, 100)
	if err != nil {
		t.Fatal(err)
	}
	if first.Code != AccessAccept {
		t.Fatalf("first reply %v", first.Code)
	}
	addr1, _ := first.GetAddr4(AttrFramedIPAddress)
	sessions := s.ActiveSessions()

	// The duplicate arrives 5 seconds later, well inside the window.
	second, err := s.Handle(req, 105)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("duplicate got a different reply:\nfirst  %+v\nsecond %+v", first, second)
	}
	addr2, _ := second.GetAddr4(AttrFramedIPAddress)
	if addr1 != addr2 {
		t.Fatalf("duplicate reallocated: %v then %v", addr1, addr2)
	}
	if s.ActiveSessions() != sessions {
		t.Fatalf("duplicate changed session count: %d -> %d", sessions, s.ActiveSessions())
	}
	// The original session must not have been replaced by the
	// duplicate: a fresh allocation would hold another address.
	if sess := s.session(s.users["dup-user"]); sess.Addr4 != addr1 {
		t.Fatalf("duplicate moved the session from %v to %v", addr1, sess.Addr4)
	}
}

func TestFreshAuthenticatorAllocatesFreshly(t *testing.T) {
	s := newTestServer(86400, false)
	a, _ := s.Handle(accessReq(7, 0xaa, "re-user"), 100)
	// Same identifier, different authenticator: a genuinely new request
	// (a reconnect), which RADIUS-style assignment answers with a fresh
	// address.
	b, _ := s.Handle(accessReq(7, 0xbb, "re-user"), 101)
	addrA, _ := a.GetAddr4(AttrFramedIPAddress)
	addrB, _ := b.GetAddr4(AttrFramedIPAddress)
	if addrA == addrB {
		t.Fatalf("new authenticator reused address %v", addrA)
	}
	if s.ActiveSessions() != 1 {
		t.Fatalf("reconnect left %d sessions", s.ActiveSessions())
	}
}

func TestDuplicateWindowExpiry(t *testing.T) {
	s := newTestServer(86400, false)
	req := accessReq(7, 0xaa, "slow-user")
	a, _ := s.Handle(req, 100)
	// The reply is the server's until its next call: read it now.
	addrA, _ := a.GetAddr4(AttrFramedIPAddress)
	// Past the 30 s window the same bytes are a new request again.
	b, _ := s.Handle(req, 100+replayWindowSec)
	addrB, _ := b.GetAddr4(AttrFramedIPAddress)
	if addrA == addrB {
		t.Fatalf("expired duplicate still served cached address %v", addrA)
	}
	if len(s.replay) != 1 || s.tail-s.head != 1 {
		t.Fatalf("expired entries not pruned: map %d ring %d", len(s.replay), s.tail-s.head)
	}
}

// TestDuplicateAfterRingGrowth: a retransmission inside the window that
// arrives after enough first-seen requests at the same second to make
// the ring grow still gets the first reply's bytes and starts no
// session; 30 s later the same request is handled afresh.
func TestDuplicateAfterRingGrowth(t *testing.T) {
	s := newTestServer(86400, true)
	req := accessReq(7, 0xaa, "first")
	rep, _ := s.Handle(req, 100)
	first := rep.EncodeResponse(req, s.Secret())
	addr, _ := rep.GetAddr4(AttrFramedIPAddress)
	const others = 24
	for i := 0; i < others; i++ {
		s.Handle(accessReq(byte(i), byte(i), fmt.Sprintf("other%d", i)), 100)
	}
	if len(s.ring) <= others {
		t.Fatalf("ring of %d entries holds %d live requests without growing", len(s.ring), others+1)
	}
	active := s.ActiveSessions()
	again, _ := s.Handle(req, 129)
	if got := again.EncodeResponse(req, s.Secret()); !bytes.Equal(got, first) {
		t.Fatalf("retransmission after growth got %x, want the first reply %x", got, first)
	}
	if s.ActiveSessions() != active || s.Stats().ReplayHits != 1 {
		t.Fatalf("retransmission: %d sessions (want %d), %d replay hits", s.ActiveSessions(), active, s.Stats().ReplayHits)
	}
	fresh, _ := s.Handle(req, 130)
	if a, _ := fresh.GetAddr4(AttrFramedIPAddress); a == addr {
		t.Fatalf("request 30 s later served the cached address %v", a)
	}
	if s.Stats().ReplayHits != 1 || s.Stats().AccessRequests != others+2 {
		t.Fatalf("request 30 s later: %+v, want it handled afresh", s.Stats())
	}
}

func TestDuplicateRejectIsCached(t *testing.T) {
	s := NewServer(ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("81.10.0.0/31")},
		SessionTimeout: 3600,
	})
	// Exhaust the 2-address pool, then duplicate the failing request.
	s.Handle(accessReq(1, 1, "u1"), 0)
	s.Handle(accessReq(2, 2, "u2"), 0)
	rej, _ := s.Handle(accessReq(3, 3, "u3"), 0)
	if rej.Code != AccessReject {
		t.Fatalf("expected reject, got %v", rej.Code)
	}
	again, _ := s.Handle(accessReq(3, 3, "u3"), 1)
	if !reflect.DeepEqual(rej, again) {
		t.Fatal("duplicate of a rejected request got a different reply")
	}
}

// exchangeOverLink runs one Access-Request over link the way the isp
// simulator does, but through the wire codec: every copy the uplink
// delivers is parsed and handled by s, and its reply encoded with the
// response authenticator. It returns the verified reply the client
// accepts and the wire bytes of every reply the server sent.
func exchangeOverLink(t *testing.T, link *faultnet.Link, s *Server, req *Packet) (*Packet, [][]byte, faultnet.Verdict) {
	t.Helper()
	wire := req.Append(nil)
	var replies [][]byte
	v := link.Exchange(0, NewRetransmitter(link.Client()), func(int) {
		in, err := Parse(wire)
		if err != nil {
			t.Fatalf("server side: %v", err)
		}
		out, err := s.Handle(in, 0)
		if err != nil {
			t.Fatalf("Handle: %v", err)
		}
		replies = append(replies, out.EncodeResponse(in, s.Secret()))
	})
	if !v.OK {
		return nil, replies, v
	}
	last := replies[len(replies)-1]
	if err := VerifyResponse(last, req, s.Secret()); err != nil {
		t.Fatalf("VerifyResponse: %v", err)
	}
	rep, err := Parse(last)
	if err != nil {
		t.Fatalf("client side: %v", err)
	}
	return rep, replies, v
}

// TestClientRetransmitsOverLossyWire runs Access-Request over a faultnet
// link whose uplink drops the first datagram: the identifier-preserving
// retransmission must deliver, and allocate exactly one session.
func TestClientRetransmitsOverLossyWire(t *testing.T) {
	s := newTestServer(86400, false)
	link := faultnet.NewLink(faultnet.Profile{Drop: 0.5}, dropThenPassSeed(t), 0)
	rep, _, v := exchangeOverLink(t, link, s, accessReq(9, 0x42, "wire-user"))
	if !v.OK || rep == nil || rep.Code != AccessAccept {
		t.Fatalf("Access through 50%% loss: verdict %+v, reply %v", v, rep)
	}
	if v.Sends != 2 || v.DoneMS < 2_500 {
		t.Fatalf("reply after %d sends at %d ms, want the 3±0.5 s retransmission", v.Sends, v.DoneMS)
	}
	if s.ActiveSessions() != 1 {
		t.Fatalf("lossy exchange left %d sessions", s.ActiveSessions())
	}
}

// TestDuplicateOverWire duplicates the request datagram on the link: the
// server must answer both copies byte-identically from one allocation.
func TestDuplicateOverWire(t *testing.T) {
	s := newTestServer(86400, false)
	link := faultnet.NewLink(faultnet.Profile{Dup: 1}, 1, 0)
	rep, replies, v := exchangeOverLink(t, link, s, accessReq(10, 0x43, "dup-wire-user"))
	if !v.OK || rep == nil || rep.Code != AccessAccept {
		t.Fatalf("verdict %+v, reply %v", v, rep)
	}
	if v.Delivered != 2 || len(replies) != 2 || !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("%d copies delivered; replies %x", v.Delivered, replies)
	}
	if s.ActiveSessions() != 1 || s.Stats().ReplayHits != 1 {
		t.Fatalf("duplicated request: %d sessions, %d replay hits", s.ActiveSessions(), s.Stats().ReplayHits)
	}
}

// dropThenPassSeed finds a link seed whose uplink draws at p=0.5 are
// (drop, pass) and whose first downlink draw passes, so the exchange
// succeeds only via retransmission. NewLink(_, seed, 0) reads its uplink
// from stream (seed, 0) and its downlink from (seed, 1).
func dropThenPassSeed(t *testing.T) uint64 {
	t.Helper()
	for seed := uint64(0); seed < 1000; seed++ {
		up, down := faultnet.NewStream(seed, 0), faultnet.NewStream(seed, 1)
		if up.Float64() < 0.5 && up.Float64() >= 0.5 && down.Float64() >= 0.5 {
			return seed
		}
	}
	t.Fatal("no (drop, pass | pass) seed in [0,1000)")
	return 0
}
