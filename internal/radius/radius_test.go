package radius

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func newTestServer(timeout uint32, dualstack bool) *Server {
	cfg := ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("81.10.0.0/24")},
		SessionTimeout: timeout,
	}
	if dualstack {
		cfg.Pools6 = []netip.Prefix{netip.MustParsePrefix("2a01:c000::/40")}
		cfg.DelegatedLen6 = 56
	}
	return NewServer(cfg)
}

func TestPacketRoundTrip(t *testing.T) {
	p := New(AccessAccept, 42)
	p.AddString(AttrUserName, "cpe-0001")
	p.AddAddr4(AttrFramedIPAddress, netip.MustParseAddr("81.10.0.7"))
	p.AddU32(AttrSessionTimeout, 86400)
	p.AddPrefix6(AttrDelegatedIPv6Prefix, netip.MustParsePrefix("2a01:c000:ab00::/56"))

	got, err := Parse(p.Append(nil))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Code != AccessAccept || got.Identifier != 42 {
		t.Errorf("header: %+v", got)
	}
	if u, _ := got.Get(AttrUserName); string(u) != "cpe-0001" {
		t.Errorf("user = %q", u)
	}
	if a, _ := got.GetAddr4(AttrFramedIPAddress); a != netip.MustParseAddr("81.10.0.7") {
		t.Errorf("addr = %v", a)
	}
	if v, _ := got.GetU32(AttrSessionTimeout); v != 86400 {
		t.Errorf("timeout = %d", v)
	}
	if pre, ok := got.GetPrefix6(AttrDelegatedIPv6Prefix); !ok || pre != netip.MustParsePrefix("2a01:c000:ab00::/56") {
		t.Errorf("prefix = %v, %v", pre, ok)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(id byte, user string, v uint32) bool {
		if len(user) > 200 {
			user = user[:200]
		}
		p := New(AccessRequest, id)
		p.AddString(AttrUserName, user)
		p.AddU32(AttrSessionTimeout, v)
		got, err := Parse(p.Append(nil))
		if err != nil {
			return false
		}
		gu, _ := got.Get(AttrUserName)
		gv, _ := got.GetU32(AttrSessionTimeout)
		return got.Identifier == id && string(gu) == user && gv == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Error("short packet accepted")
	}
	p := New(AccessRequest, 1).Append(nil)
	p[2], p[3] = 0, 10 // length below minimum
	if _, err := Parse(p); err == nil {
		t.Error("bad length accepted")
	}
	q := New(AccessRequest, 1)
	q.AddString(AttrUserName, "x")
	b := q.Append(nil)
	b[21] = 1 // attribute length below 2
	if _, err := Parse(b); err == nil {
		t.Error("bad attribute length accepted")
	}
}

func TestGetPrefix6Malformed(t *testing.T) {
	p := New(AccessAccept, 1)
	p.Add(AttrDelegatedIPv6Prefix, []byte{0, 200}) // bits > 128
	if _, ok := p.GetPrefix6(AttrDelegatedIPv6Prefix); ok {
		t.Error("prefix with 200 bits accepted")
	}
	p2 := New(AccessAccept, 1)
	p2.Add(AttrDelegatedIPv6Prefix, []byte{0, 64, 1, 2}) // too few prefix bytes
	if _, ok := p2.GetPrefix6(AttrDelegatedIPv6Prefix); ok {
		t.Error("truncated prefix accepted")
	}
}

func TestResponseAuthenticator(t *testing.T) {
	secret := []byte("s3cret")
	req := New(AccessRequest, 9)
	req.Authenticator = [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	rep := New(AccessAccept, 9)
	wire := rep.EncodeResponse(req, secret)
	if err := VerifyResponse(wire, req, secret); err != nil {
		t.Errorf("VerifyResponse: %v", err)
	}
	if err := VerifyResponse(wire, req, []byte("wrong")); err == nil {
		t.Error("wrong secret verified")
	}
	wire[0] = byte(AccessReject) // tamper
	if err := VerifyResponse(wire, req, secret); err == nil {
		t.Error("tampered packet verified")
	}
	if err := VerifyResponse(wire[:10], req, secret); err == nil {
		t.Error("short packet verified")
	}
}

func TestAttributeTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversize attribute did not panic")
		}
	}()
	p := New(AccessRequest, 1)
	p.Add(AttrUserName, make([]byte, 300))
	p.Append(nil)
}

func TestSessionLifecycle(t *testing.T) {
	s := newTestServer(86400, true)
	sess, err := s.StartSession(s.User("u1"))
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	if !netip.MustParsePrefix("81.10.0.0/24").Contains(sess.Addr4) {
		t.Errorf("addr4 %v outside pool", sess.Addr4)
	}
	if sess.Prefix6.Bits() != 56 {
		t.Errorf("prefix6 = %v", sess.Prefix6)
	}
	// Reconnect draws a fresh address (RADIUS keeps no binding).
	sess2, err := s.StartSession(s.User("u1"))
	if err != nil {
		t.Fatalf("StartSession: %v", err)
	}
	if sess2.Addr4 == sess.Addr4 && sess2.Prefix6 == sess.Prefix6 {
		t.Error("reconnect reused both addresses; expected fresh allocation")
	}
	if s.ActiveSessions() != 1 {
		t.Errorf("ActiveSessions = %d", s.ActiveSessions())
	}
	s.StopSession(s.User("u1"))
	if s.ActiveSessions() != 0 {
		t.Errorf("ActiveSessions after stop = %d", s.ActiveSessions())
	}
}

func TestDistinctAddressesAcrossUsers(t *testing.T) {
	s := newTestServer(3600, false)
	seen4 := map[netip.Addr]bool{}
	for i := 0; i < 50; i++ {
		sess, err := s.StartSession(s.User(string(rune('a'+i%26)) + string(rune('0'+i/26))))
		if err != nil {
			t.Fatalf("StartSession %d: %v", i, err)
		}
		if seen4[sess.Addr4] {
			t.Fatalf("duplicate address %v", sess.Addr4)
		}
		seen4[sess.Addr4] = true
	}
}

func TestPoolExhaustion(t *testing.T) {
	s := NewServer(ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("81.10.0.0/30")},
		SessionTimeout: 60,
	})
	for i := 0; i < 4; i++ {
		if _, err := s.StartSession(s.User(string(rune('a' + i)))); err != nil {
			t.Fatalf("StartSession %d: %v", i, err)
		}
	}
	if _, err := s.StartSession(s.User("e")); err == nil {
		t.Fatal("5th session on /30 succeeded")
	}
	s.StopSession(s.User("a"))
	if _, err := s.StartSession(s.User("e")); err != nil {
		t.Errorf("session after free failed: %v", err)
	}
}

func TestHandleAccessRequest(t *testing.T) {
	s := newTestServer(86400, true)
	req := New(AccessRequest, 5)
	req.AddString(AttrUserName, "cpe-42")
	rep, err := s.Handle(req, 1000)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if rep.Code != AccessAccept {
		t.Fatalf("code = %v", rep.Code)
	}
	if _, ok := rep.GetAddr4(AttrFramedIPAddress); !ok {
		t.Error("no Framed-IP-Address")
	}
	if v, _ := rep.GetU32(AttrSessionTimeout); v != 86400 {
		t.Errorf("Session-Timeout = %d", v)
	}
	if _, ok := rep.GetPrefix6(AttrDelegatedIPv6Prefix); !ok {
		t.Error("no Delegated-IPv6-Prefix")
	}
}

func TestHandleRejectsAnonymous(t *testing.T) {
	s := newTestServer(60, false)
	rep, err := s.Handle(New(AccessRequest, 1), 0)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if rep.Code != AccessReject {
		t.Errorf("code = %v, want reject", rep.Code)
	}
}

func TestNewServerPanics(t *testing.T) {
	for name, cfg := range map[string]ServerConfig{
		"no pools":     {SessionTimeout: 1},
		"zero timeout": {Pools4: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}},
		"v6 in v4": {Pools4: []netip.Prefix{netip.MustParsePrefix("2001:db8::/64")},
			SessionTimeout: 1},
		"bad delegated": {Pools4: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")},
			Pools6: []netip.Prefix{netip.MustParsePrefix("2001:db8::/40")}, DelegatedLen6: 20,
			SessionTimeout: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewServer did not panic", name)
				}
			}()
			NewServer(cfg)
		}()
	}
}

func TestCodeString(t *testing.T) {
	if AccessRequest.String() != "Access-Request" {
		t.Error("code name wrong")
	}
	if Code(77).String() != "Code(77)" {
		t.Error("unknown code name wrong")
	}
}
