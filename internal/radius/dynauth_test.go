package radius

import (
	"net/netip"
	"testing"
)

// attrNASIPAddress is RFC 2865's NAS-IP-Address, one of the RFC 5176 NAS
// identification attributes a Disconnect-Request may carry.
const attrNASIPAddress byte = 4

// TestDynauthWireRoundTrip: CoA/Disconnect requests and replies survive
// the wire codec byte-for-byte, with valid request authenticators.
func TestDynauthWireRoundTrip(t *testing.T) {
	secret := []byte("s3cret")
	cases := []struct {
		name  string
		build func() *Packet
	}{
		{"coa-request", func() *Packet {
			p := New(CoARequest, 7)
			p.AddString(AttrUserName, "s42")
			return p
		}},
		{"disconnect-request", func() *Packet {
			p := New(DisconnectRequest, 8)
			p.AddString(AttrUserName, "s42")
			p.AddAddr4(attrNASIPAddress, netip.MustParseAddr("192.0.2.1"))
			return p
		}},
		{"coa-request-with-addrs", func() *Packet {
			p := New(CoARequest, 9)
			p.AddString(AttrUserName, "s1")
			p.AddAddr4(AttrFramedIPAddress, netip.MustParseAddr("10.0.0.7"))
			p.AddPrefix6(AttrDelegatedIPv6Prefix, netip.MustParsePrefix("2001:db8:100::/56"))
			return p
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := c.build()
			wire := req.AppendRequest(nil, secret)
			if err := VerifyRequest(wire, secret); err != nil {
				t.Fatalf("VerifyRequest: %v", err)
			}
			if err := VerifyRequest(wire, []byte("wrong")); err == nil {
				t.Fatal("VerifyRequest accepted the wrong secret")
			}
			got, err := Parse(wire)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if got.Code != req.Code || got.Identifier != req.Identifier {
				t.Fatalf("header mismatch: %v/%d vs %v/%d", got.Code, got.Identifier, req.Code, req.Identifier)
			}
			if u, _ := got.Get(AttrUserName); len(u) == 0 {
				t.Fatal("User-Name lost in transit")
			}
			// Retransmission must re-encode byte-identically (the
			// replay cache keys on Identifier+Authenticator).
			again := got.Append(nil)
			if len(again) != len(wire) {
				t.Fatalf("re-encode length %d != %d", len(again), len(wire))
			}
			for i := range wire {
				if again[i] != wire[i] {
					t.Fatalf("re-encode differs at byte %d", i)
				}
			}
		})
	}
	// Tampering any byte breaks the authenticator.
	p := New(CoARequest, 3)
	p.AddString(AttrUserName, "u")
	wire := p.AppendRequest(nil, secret)
	for i := range wire {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x40
		if err := VerifyRequest(bad, secret); err == nil {
			t.Fatalf("VerifyRequest accepted a packet tampered at byte %d", i)
		}
	}
}

// dynauthServer builds a server with one live session for user "sub".
func dynauthServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer(ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("10.10.0.0/20")},
		Pools6:         []netip.Prefix{netip.MustParsePrefix("2001:db8::/40")},
		DelegatedLen6:  56,
		SessionTimeout: 3600,
	})
	if _, err := s.StartSession(s.User("sub")); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCoADispatch: a CoA renumbers the live session and ACKs with the
// fresh attributes; unknown users and missing attributes NAK with the
// right Error-Cause.
func TestCoADispatch(t *testing.T) {
	s := dynauthServer(t)
	before := s.session(s.users["sub"]).Addr4

	req := New(CoARequest, 21)
	req.AddString(AttrUserName, "sub")
	parsed, err := Parse(req.AppendRequest(nil, s.Secret()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Handle(parsed, 200)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != CoAACK {
		t.Fatalf("Code = %v, want CoAACK", rep.Code)
	}
	after, ok := rep.GetAddr4(AttrFramedIPAddress)
	if !ok {
		t.Fatal("ACK missing Framed-IP-Address")
	}
	if after == before {
		t.Error("CoA did not renumber the session")
	}
	if sess := s.session(s.users["sub"]); sess.Addr4 != after {
		t.Errorf("session holds %v, CoA-ACK names %v", sess.Addr4, after)
	}
	if v, _ := rep.GetU32(AttrSessionTimeout); v != 3600 {
		t.Errorf("CoA-ACK Session-Timeout = %d, want 3600", v)
	}
	if _, ok := rep.GetPrefix6(AttrDelegatedIPv6Prefix); !ok {
		t.Error("ACK missing Delegated-IPv6-Prefix")
	}
	if s.Stats().CoARequests != 1 {
		t.Errorf("CoARequests = %d, want 1", s.Stats().CoARequests)
	}

	// Unknown session → NAK 503.
	req = New(CoARequest, 22)
	req.AddString(AttrUserName, "ghost")
	parsed, _ = Parse(req.AppendRequest(nil, s.Secret()))
	rep, err = s.Handle(parsed, 201)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != CoANAK {
		t.Fatalf("Code = %v, want CoANAK", rep.Code)
	}
	if cause, _ := rep.GetU32(AttrErrorCause); cause != ErrCauseSessionNotFound {
		t.Errorf("Error-Cause = %d, want %d", cause, ErrCauseSessionNotFound)
	}

	// Missing User-Name → NAK 402.
	parsed, _ = Parse(New(CoARequest, 23).AppendRequest(nil, s.Secret()))
	rep, _ = s.Handle(parsed, 202)
	if cause, _ := rep.GetU32(AttrErrorCause); rep.Code != CoANAK || cause != ErrCauseMissingAttribute {
		t.Errorf("missing-attr reply = %v cause %d", rep.Code, cause)
	}
}

// TestDisconnectDispatch: a Disconnect tears the session down and frees
// its addresses.
func TestDisconnectDispatch(t *testing.T) {
	s := dynauthServer(t)
	req := New(DisconnectRequest, 31)
	req.AddString(AttrUserName, "sub")
	parsed, _ := Parse(req.AppendRequest(nil, s.Secret()))
	rep, err := s.Handle(parsed, 300)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != DisconnectACK {
		t.Fatalf("Code = %v, want DisconnectACK", rep.Code)
	}
	if s.ActiveSessions() != 0 {
		t.Errorf("session survived the disconnect")
	}
	if s.Stats().Disconnects != 1 {
		t.Errorf("Disconnects = %d, want 1", s.Stats().Disconnects)
	}
	// Second disconnect with a NEW identifier: session already gone.
	req = New(DisconnectRequest, 32)
	req.AddString(AttrUserName, "sub")
	parsed, _ = Parse(req.AppendRequest(nil, s.Secret()))
	rep, _ = s.Handle(parsed, 301)
	if cause, _ := rep.GetU32(AttrErrorCause); rep.Code != DisconnectNAK || cause != ErrCauseSessionNotFound {
		t.Errorf("replayed disconnect = %v cause %d", rep.Code, cause)
	}
}

// TestDynauthReplayCache: a retransmitted CoA (same Identifier and
// Authenticator) must be answered from the duplicate cache, not
// renumber the session twice (RFC 5080 §2.2.2 via RFC 5176 §5.1).
func TestDynauthReplayCache(t *testing.T) {
	s := dynauthServer(t)
	req := New(CoARequest, 40)
	req.AddString(AttrUserName, "sub")
	wire := req.AppendRequest(nil, s.Secret())

	p1, _ := Parse(wire)
	rep1, err := s.Handle(p1, 400)
	if err != nil {
		t.Fatal(err)
	}
	addr1, _ := rep1.GetAddr4(AttrFramedIPAddress)

	p2, _ := Parse(wire)
	rep2, err := s.Handle(p2, 401)
	if err != nil {
		t.Fatal(err)
	}
	addr2, _ := rep2.GetAddr4(AttrFramedIPAddress)
	if addr1 != addr2 {
		t.Errorf("retransmitted CoA renumbered again: %v then %v", addr1, addr2)
	}
	if s.Stats().ReplayHits != 1 {
		t.Errorf("ReplayHits = %d, want 1", s.Stats().ReplayHits)
	}
	if s.Stats().CoARequests != 1 {
		t.Errorf("CoARequests = %d, want 1 (replay must not re-dispatch)", s.Stats().CoARequests)
	}
}

// FuzzDynauth is the native fuzz target for the RFC 5176 paths: parsed
// packets of any shape dispatched as CoA/Disconnect must never panic,
// and VerifyRequest must reject arbitrary mutations. A request decoded
// into a packet that held another one must match a fresh decode.
func FuzzDynauth(f *testing.F) {
	seedReq := New(CoARequest, 5)
	seedReq.AddString(AttrUserName, "sub")
	seed := seedReq.AppendRequest(nil, []byte("s3cret"))
	f.Add(seed)
	d := New(DisconnectRequest, 6)
	d.AddString(AttrUserName, "nobody")
	f.Add(d.AppendRequest(nil, []byte("s3cret")))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		VerifyRequest(b, []byte("s3cret")) //nolint:errcheck // errors are expected
		p, err := Parse(b)
		if err := sameDecode(seed, b, err, p); err != nil {
			t.Fatal(err)
		}
		if p == nil {
			return
		}
		s := NewServer(ServerConfig{
			Pools4:         []netip.Prefix{netip.MustParsePrefix("10.9.0.0/24")},
			SessionTimeout: 3600,
		})
		if _, err := s.StartSession(s.User("sub")); err != nil {
			t.Fatal(err)
		}
		for _, code := range []Code{CoARequest, DisconnectRequest} {
			q := *p
			q.Code = code
			rep, err := s.Handle(&q, 2)
			if err == nil && rep != nil {
				rep.Append(nil)
			}
		}
	})
}
