package dhcp6

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

// bound returns the prefix d's record is bound to, if it is bound.
func bound(s *Server, d DUID) (netip.Prefix, bool) {
	c := s.clients[string(d)]
	if !c.bound {
		return netip.Prefix{}, false
	}
	return s.unit(c.prefix), true
}

// heldCount returns the number of bindings whose client holds their
// prefix.
func heldCount(s *Server) int {
	n := 0
	for k := range s.clients {
		p, ok := bound(s, DUID(k))
		if cur, held := s.pool.Holder(p); ok && held && cur == k {
			n++
		}
	}
	return n
}

// state renders every record and every /bits delegation's holder of
// pool: what a refused message must leave as it found it.
func state(s *Server, pool netip.Prefix, bits int) string {
	var holders []string
	for i := uint64(0); i < 1<<(bits-pool.Bits()); i++ {
		p, _ := netutil.SubPrefix(pool, bits, i)
		h, ok := s.pool.Holder(p)
		holders = append(holders, fmt.Sprint(h, ok))
	}
	return fmt.Sprint(s.clients, holders)
}

// checkHolders walks every /bits delegation of pool: each held one's
// holder must be a client whose binding is that prefix, and every
// binding must hold its prefix. So no client holds two prefixes and held
// prefixes never outnumber clients. Each record's key must be its map
// key.
func checkHolders(t *testing.T, s *Server, pool netip.Prefix, bits, clients int, step string) {
	t.Helper()
	held := 0
	for i := uint64(0); i < 1<<(bits-pool.Bits()); i++ {
		p, err := netutil.SubPrefix(pool, bits, i)
		if err != nil {
			t.Fatal(err)
		}
		c, ok := s.pool.Holder(p)
		if !ok {
			continue
		}
		held++
		if b, ok := bound(s, DUID(c)); !ok || b != p {
			t.Fatalf("after %s: %v is held by %v, whose binding is %v (present %v)", step, p, DUID(c), b, ok)
		}
	}
	if held > clients {
		t.Fatalf("after %s: %d prefixes held by %d clients", step, held, clients)
	}
	bindings := 0
	for k, c := range s.clients {
		if c.key != k {
			t.Fatalf("after %s: record of %x keyed %x", step, k, c.key)
		}
		if c.bound {
			bindings++
		}
	}
	if n := heldCount(s); held != n || bindings != n {
		t.Fatalf("after %s: %d prefixes held, %d bindings of which %d hold theirs", step, held, bindings, n)
	}
}

// TestServerHolderInvariant drives the delegation server through seeded
// random sequences of Solicit (with and without rapid commit) and
// Request (through Handle), Acquire, Reassign, ReleaseBinding, LoseState
// and Renumber, on pools both larger and smaller than the client
// population, and checks the holder invariant after every step.
// Bindings never expire, so a path that rebinds a client without freeing
// its old prefix would leak that prefix for good. Confirm, Renew, Rebind
// and Release, which no sender makes, must be refused with an error and
// change no record or holder.
func TestServerHolderInvariant(t *testing.T) {
	const (
		clients = 6
		bits    = 64
	)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		pool := netip.PrefixFrom(netip.MustParseAddr("2001:db8::"), 59+rng.Intn(4))
		srv, clk := newTestServer(86400, bits, pool.String())
		advertised := map[string]netip.Prefix{}
		for step := 0; step < 300; step++ {
			clk.t += int64(rng.Intn(7200))
			d := duid(byte(1 + rng.Intn(clients)))
			client := string(d)
			txn := uint32(step)
			handle := func(m *Message) *Message {
				t.Helper()
				rep, err := srv.Handle(m)
				if err != nil {
					t.Fatalf("trial %d step %d: %v: %v", trial, step, m.Type, err)
				}
				return rep
			}
			var op string
			switch r := rng.Intn(100); {
			case r < 20:
				op = "Solicit"
				m := NewMessage(Solicit, txn, d)
				m.RapidCommit = rng.Intn(2) == 0
				rep := handle(m)
				if len(rep.IAPDs[0].Prefixes) > 0 && !m.RapidCommit {
					advertised[client] = rep.IAPDs[0].Prefixes[0].Prefix
				}
			case r < 40:
				op = "Request"
				want := advertised[client]
				switch rng.Intn(3) {
				case 0:
					want, _ = bound(srv, d)
				case 1:
					want, _ = netutil.SubPrefix(pool, bits, uint64(rng.Intn(1<<(bits-pool.Bits()))))
				}
				m := NewMessage(Request, txn, d)
				m.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Prefix: want}}}}
				rep := handle(m)
				b, _ := bound(srv, d)
				if ia := rep.IAPDs[0]; len(ia.Prefixes) > 0 && (ia.Prefixes[0].Prefix != want || b != want) {
					t.Fatalf("trial %d step %d: Reply delegates %v, requested %v, binding %v", trial, step, ia.Prefixes[0].Prefix, want, b)
				}
			case r < 50:
				mt := []MessageType{Confirm, Renew, Rebind, Release}[rng.Intn(4)]
				op = mt.String()
				m := NewMessage(mt, txn, d)
				if p, ok := bound(srv, d); ok {
					m.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Prefix: p}}}}
				}
				before := state(srv, pool, bits)
				if rep, err := srv.Handle(m); err == nil {
					t.Fatalf("trial %d step %d: %v answered %v, want an error", trial, step, mt, rep.Type)
				}
				if after := state(srv, pool, bits); after != before {
					t.Fatalf("trial %d step %d: %v changed the server:\n%s\n%s", trial, step, mt, before, after)
				}
			case r < 80:
				op = "Acquire"
				b, err := srv.Acquire(d, txn)
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: Acquire: %v", trial, step, err)
				}
				if p, ok := bound(srv, d); err == nil && (!ok || p != b.Prefix) {
					t.Fatalf("trial %d step %d: Acquire returned %+v, server binds %v (%v)", trial, step, b, p, ok)
				}
			case r < 92:
				op = "Reassign"
				old, was := bound(srv, d)
				b, err := srv.Reassign(d, txn)
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: Reassign: %v", trial, step, err)
				}
				if p, ok := bound(srv, d); err == nil && (!ok || p != b.Prefix || was && b.Prefix == old) {
					t.Fatalf("trial %d step %d: Reassign of %v returned %+v, server binds %v", trial, step, old, b, p)
				}
			case r < 97:
				op = "ReleaseBinding"
				srv.ReleaseBinding(d)
			case r < 99:
				op = "LoseState"
				srv.LoseState()
			default:
				op = "Renumber"
				srv.Renumber()
			}
			checkHolders(t, srv, pool, bits, clients, op)
		}
	}
}
