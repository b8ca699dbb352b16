package radius

import (
	"net/netip"
	"testing"
)

// TestUnknownUserIsNotRegistered: a CoA-Request or Disconnect-Request
// naming a user the server has never seen changes nothing. They are
// NAKed with Error-Cause 503, and the user table does not grow: only an
// Access-Request registers a user.
func TestUnknownUserIsNotRegistered(t *testing.T) {
	s := dynauthServer(t)
	users := len(s.users)
	for i, code := range []Code{CoARequest, DisconnectRequest} {
		req := New(code, byte(50+i))
		req.AddString(AttrUserName, "never-seen")
		parsed, err := Parse(req.AppendRequest(nil, s.Secret()))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Handle(parsed, 400)
		if err != nil {
			t.Fatal(err)
		}
		if cause, _ := rep.GetU32(AttrErrorCause); cause != ErrCauseSessionNotFound {
			t.Errorf("%v for an unknown user: %v with Error-Cause %d, want %d", code, rep.Code, cause, ErrCauseSessionNotFound)
		}
		if rep.Code != CoANAK && rep.Code != DisconnectNAK {
			t.Errorf("%v for an unknown user: %v, want a NAK", code, rep.Code)
		}
	}
	if len(s.users) != users || len(s.sessions) != users {
		t.Errorf("user table grew from %d to %d users, %d slots", users, len(s.users), len(s.sessions))
	}
	if _, ok := s.users["never-seen"]; ok {
		t.Error("an unknown user was registered")
	}
	if s.ActiveSessions() != 1 {
		t.Errorf("ActiveSessions = %d, want the one live session", s.ActiveSessions())
	}
}

// TestUserKeepsID: a user's id is its slot for good. Stops and starts,
// by id and through the wire, keep it, and a new user gets the next
// slot.
func TestUserKeepsID(t *testing.T) {
	s := newTestServer(3600, true)
	id := s.User("keep")
	if got := s.User("keep"); got != id {
		t.Fatalf("second User = %d, first %d", got, id)
	}
	active := func(want int) {
		t.Helper()
		if s.ActiveSessions() != want {
			t.Fatalf("ActiveSessions = %d, want %d", s.ActiveSessions(), want)
		}
	}
	for round := 0; round < 3; round++ {
		if _, err := s.StartSession(id); err != nil {
			t.Fatal(err)
		}
		active(1)
		s.StopSession(id)
		active(0)
		s.StopSession(id) // a second stop frees nothing
		active(0)
		if got := s.User("keep"); got != id {
			t.Fatalf("round %d: User = %d after stop and start, want %d", round, got, id)
		}
	}
	req := New(AccessRequest, 9)
	req.AddString(AttrUserName, "keep")
	if rep, _ := s.Handle(req, 10); rep.Code != AccessAccept {
		t.Fatalf("Access-Request: %v", rep.Code)
	}
	if got := s.users["keep"]; got != id {
		t.Fatalf("Access-Request moved the user from id %d to %d", id, got)
	}
	active(1)
	if other := s.User("other"); other != id+1 {
		t.Errorf("a new user got id %d, want the next slot %d", other, id+1)
	}
	if len(s.sessions) != 2 {
		t.Errorf("%d slots for 2 users", len(s.sessions))
	}
}

// TestSessionByIDAllocs pins the RADIUS session path at zero
// allocations on a warmed server: renumbering a live session, and a
// stop then a start, by id.
func TestSessionByIDAllocs(t *testing.T) {
	s := NewServer(ServerConfig{
		Pools4:         []netip.Prefix{netip.MustParsePrefix("81.10.0.0/17")},
		Pools6:         []netip.Prefix{netip.MustParsePrefix("2003:1000::/42")},
		DelegatedLen6:  56,
		SessionTimeout: 3600,
	})
	ids := make([]int32, 64)
	for i := range ids {
		ids[i] = s.User(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		if _, err := s.StartSession(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	id := ids[len(ids)/2]
	if n := testing.AllocsPerRun(100, func() {
		if _, err := s.StartSession(id); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("renumbering a live session: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.StopSession(id)
		if _, err := s.StartSession(id); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("stop then start: %v allocations, want 0", n)
	}
	if s.ActiveSessions() != len(ids) {
		t.Errorf("ActiveSessions = %d, want %d", s.ActiveSessions(), len(ids))
	}
}

// TestDynauthAllocs pins the RFC 5176 round trip at zero allocations on
// a warmed server: a CoA-Request, and a Disconnect-Request followed by
// the session's restart, each built, encoded, verified and decoded in
// reused packets and buffers, then handled. The clock moves past the
// duplicate window between runs, so each request is first-seen and
// takes the ring entry the previous one left to expire.
func TestDynauthAllocs(t *testing.T) {
	s := newTestServer(3600, true)
	id := s.User("sub")
	if _, err := s.StartSession(id); err != nil {
		t.Fatal(err)
	}
	var req, in Packet
	var wire []byte
	now := int64(0)
	roundTrip := func(code, want Code) {
		now += replayWindowSec
		req.Reset(code, 9)
		req.AddString(AttrUserName, "sub")
		wire = req.AppendRequest(wire[:0], s.Secret())
		if err := VerifyRequest(wire, s.Secret()); err != nil {
			t.Fatal(err)
		}
		if err := in.Decode(wire); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Handle(&in, now)
		if err != nil || rep.Code != want {
			t.Fatalf("%v: reply %v, %v; want %v", code, rep.Code, err, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { roundTrip(CoARequest, CoAACK) }); n != 0 {
		t.Errorf("CoA round trip: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		roundTrip(DisconnectRequest, DisconnectACK)
		if _, err := s.StartSession(id); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Disconnect round trip: %v allocations, want 0", n)
	}
	if got := s.tail - s.head; got != 1 {
		t.Errorf("ring holds %d live entries, want 1", got)
	}
}
