package radius

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

// checkHolders walks every address of pool4 and every /bits delegation
// of pool6: each held unit's holder must be the id of a user whose live
// session holds that unit, and each family must hold exactly one unit
// per live session. So no session holds two units of a family, and no
// unit is held by a session that has ended. The user table must give
// each user its own slot, and ActiveSessions must count the live ones.
func checkHolders(t *testing.T, s *Server, pool4, pool6 netip.Prefix, bits int, step string) {
	t.Helper()
	if len(s.users) != len(s.sessions) {
		t.Fatalf("after %s: %d users in %d slots", step, len(s.users), len(s.sessions))
	}
	slot := make(map[int32]string, len(s.users))
	for name, id := range s.users {
		if other, dup := slot[id]; dup || id < 0 || int(id) >= len(s.sessions) {
			t.Fatalf("after %s: user %q has id %d (also %q's), of %d slots", step, name, id, other, len(s.sessions))
		}
		slot[id] = name
	}
	live := 0
	for _, sl := range s.sessions {
		if sl.live {
			live++
		}
	}
	if s.ActiveSessions() != live {
		t.Fatalf("after %s: ActiveSessions = %d, %d live slots", step, s.ActiveSessions(), live)
	}
	held4 := 0
	for i := uint64(0); i < 1<<(32-pool4.Bits()); i++ {
		a, err := netutil.HostAddr(pool4, i)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := s.pool4.Holder(a)
		if !ok {
			continue
		}
		held4++
		if sess := s.session(id); sess.Addr4 != a {
			t.Fatalf("after %s: %v is held by user %d (%q), whose session holds %v", step, a, id, slot[id], sess.Addr4)
		}
	}
	held6 := 0
	for i := uint64(0); i < 1<<(bits-pool6.Bits()); i++ {
		p, err := netutil.SubPrefix(pool6, bits, i)
		if err != nil {
			t.Fatal(err)
		}
		id, ok := s.pool6.Holder(p)
		if !ok {
			continue
		}
		held6++
		if sess := s.session(id); sess.Prefix6 != p {
			t.Fatalf("after %s: %v is held by user %d (%q), whose session holds %v", step, p, id, slot[id], sess.Prefix6)
		}
	}
	if held4 != live || held6 != live {
		t.Fatalf("after %s: %d addresses and %d prefixes held by %d sessions", step, held4, held6, live)
	}
}

// state renders the user table, every slot, the duplicate cache's
// bounds and every unit's holder of pool4 and of pool6's /bits
// delegations: what a refused packet must leave as it found it.
func state(s *Server, pool4, pool6 netip.Prefix, bits int) string {
	var holders []string
	for i := uint64(0); i < 1<<(32-pool4.Bits()); i++ {
		a, _ := netutil.HostAddr(pool4, i)
		id, ok := s.pool4.Holder(a)
		holders = append(holders, fmt.Sprint(id, ok))
	}
	for i := uint64(0); i < 1<<(bits-pool6.Bits()); i++ {
		p, _ := netutil.SubPrefix(pool6, bits, i)
		id, ok := s.pool6.Holder(p)
		holders = append(holders, fmt.Sprint(id, ok))
	}
	return fmt.Sprint(s.users, s.sessions, s.active, s.head, s.tail, holders)
}

// TestServerHolderInvariant drives the session server through seeded
// random sequences of StartSession and StopSession, and of
// Access-Requests, CoA-Requests and Disconnect-Requests (fresh and
// retransmitted) through Handle, on address and delegation pools both
// smaller and larger than the user population, and checks the holder
// invariant after every step. An Accounting-Stop, which no sender
// makes, must be refused with an error and change nothing. Then it stops every user, and every unit
// of both pools must be drawable again: a unit lost on any path, such as
// the address drawn before the delegation pool ran out, is held by no
// session and never handed out again.
func TestServerHolderInvariant(t *testing.T) {
	const (
		users = 6
		bits  = 62
	)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pool4 := netip.PrefixFrom(netip.MustParseAddr("81.10.0.0"), 29+rng.Intn(2))
		pool6 := netip.PrefixFrom(netip.MustParseAddr("2001:db8::"), 59+rng.Intn(2))
		srv := NewServer(ServerConfig{
			Pools4:         []netip.Prefix{pool4},
			Pools6:         []netip.Prefix{pool6},
			DelegatedLen6:  bits,
			SessionTimeout: 3600,
		})
		var (
			now  int64
			last *Packet
		)
		for step := 0; step < 300; step++ {
			now += int64(rng.Intn(20))
			user := fmt.Sprintf("u%d", rng.Intn(users))
			request := func(code Code) *Packet {
				p := New(code, byte(step))
				rng.Read(p.Authenticator[:])
				p.AddString(AttrUserName, user)
				return p
			}
			handle := func(p *Packet) *Packet {
				t.Helper()
				rep, err := srv.Handle(p, now)
				if err != nil {
					t.Fatalf("trial %d step %d: %v: %v", trial, step, p.Code, err)
				}
				last = p
				return rep
			}
			var op string
			switch r := rng.Intn(100); {
			case r < 20:
				op = "StartSession"
				id := srv.User(user)
				sess, err := srv.StartSession(id)
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: StartSession: %v", trial, step, err)
				}
				if err == nil && srv.session(id) != sess {
					t.Fatalf("trial %d step %d: StartSession returned %+v, server holds %+v", trial, step, sess, srv.session(id))
				}
			case r < 35:
				op = "StopSession"
				srv.StopSession(srv.User(user))
			case r < 60:
				op = "Access-Request"
				rep := handle(request(AccessRequest))
				if a, _ := rep.GetAddr4(AttrFramedIPAddress); rep.Code == AccessAccept && srv.session(srv.users[user]).Addr4 != a {
					t.Fatalf("trial %d step %d: Access-Accept names %v, session holds %v", trial, step, a, srv.session(srv.users[user]).Addr4)
				}
			case r < 80:
				op = "CoA-Request"
				rep := handle(request(CoARequest))
				if a, _ := rep.GetAddr4(AttrFramedIPAddress); rep.Code == CoAACK && srv.session(srv.users[user]).Addr4 != a {
					t.Fatalf("trial %d step %d: CoA-ACK names %v, session holds %v", trial, step, a, srv.session(srv.users[user]).Addr4)
				}
			case r < 88:
				op = "Disconnect-Request"
				if rep := handle(request(DisconnectRequest)); rep.Code == DisconnectACK && srv.sessions[srv.users[user]].live {
					t.Fatalf("trial %d step %d: Disconnect-ACK left %q a session", trial, step, user)
				}
			case r < 94:
				op = "Accounting-Request"
				p := request(AccountingRequest)
				p.AddU32(40, 2) // Acct-Status-Type: Stop (RFC 2866 §5.1)
				before := state(srv, pool4, pool6, bits)
				if rep, err := srv.Handle(p, now); err == nil {
					t.Fatalf("trial %d step %d: Accounting-Request answered %v, want an error", trial, step, rep.Code)
				}
				if after := state(srv, pool4, pool6, bits); after != before {
					t.Fatalf("trial %d step %d: Accounting-Request changed the server:\n%s\n%s", trial, step, before, after)
				}
			default:
				op = "retransmission"
				if last != nil {
					handle(last)
				}
			}
			checkHolders(t, srv, pool4, pool6, bits, op)
		}
		for u := 0; u < users; u++ {
			srv.StopSession(srv.User(fmt.Sprintf("u%d", u)))
		}
		checkHolders(t, srv, pool4, pool6, bits, "stopping every user")
		// Every unit is free again: as many sessions start as the
		// smaller pool holds, and the larger pool's rest can be drawn.
		n := min(srv.pool4.Size(), srv.pool6.Size())
		for u := uint64(0); u < n; u++ {
			if _, err := srv.StartSession(srv.User(fmt.Sprintf("v%d", u))); err != nil {
				t.Fatalf("trial %d: session %d of %d after stopping every user: %v", trial, u+1, n, err)
			}
		}
		for u := n; u < srv.pool4.Size(); u++ {
			if _, err := srv.pool4.Next(); err != nil {
				t.Fatalf("trial %d: address %d of %d after stopping every user: %v", trial, u+1, srv.pool4.Size(), err)
			}
		}
		for u := n; u < srv.pool6.Size(); u++ {
			if _, err := srv.pool6.Next(); err != nil {
				t.Fatalf("trial %d: prefix %d of %d after stopping every user: %v", trial, u+1, srv.pool6.Size(), err)
			}
		}
	}
}
