package dhcp6

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

// heldCount returns the number of bindings whose client holds their
// prefix.
func heldCount(s *Server) int {
	n := 0
	for c, b := range s.byClient {
		if cur, ok := s.pool.Holder(b.Prefix); ok && cur == c {
			n++
		}
	}
	return n
}

// checkHolders walks every /bits delegation of pool: each held one's
// holder must be a client whose binding is that prefix, and every
// binding must hold its prefix. So no client holds two prefixes and held
// prefixes never outnumber clients.
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
		if b, bound := s.byClient[c]; !bound || b.Prefix != p {
			t.Fatalf("after %s: %v is held by %v, whose binding is %+v (present %v)", step, p, DUID(c), b, bound)
		}
	}
	if held > clients {
		t.Fatalf("after %s: %d prefixes held by %d clients", step, held, clients)
	}
	if n := heldCount(s); held != n || len(s.byClient) != n {
		t.Fatalf("after %s: %d prefixes held, %d bindings of which %d hold theirs", step, held, len(s.byClient), n)
	}
}

// TestServerHolderInvariant drives the delegation server through seeded
// random sequences of Solicit (with and without rapid commit), Request,
// Renew, Rebind, Confirm and Release (through Handle), Acquire, Reassign,
// ReleaseBinding, LoseState and Renumber, on pools both larger and
// smaller than the client population, and checks the holder invariant
// after every step. Bindings never expire, so a path that rebinds a
// client without freeing its old prefix would leak that prefix for good.
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
					want = srv.byClient[client].Prefix
				case 1:
					want, _ = netutil.SubPrefix(pool, bits, uint64(rng.Intn(1<<(bits-pool.Bits()))))
				}
				m := NewMessage(Request, txn, d)
				m.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Prefix: want}}}}
				rep := handle(m)
				if ia := rep.IAPDs[0]; len(ia.Prefixes) > 0 && (ia.Prefixes[0].Prefix != want || srv.byClient[client].Prefix != want) {
					t.Fatalf("trial %d step %d: Reply delegates %v, requested %v, binding %+v", trial, step, ia.Prefixes[0].Prefix, want, srv.byClient[client])
				}
			case r < 50:
				op = "Renew/Rebind"
				mt := Renew
				if rng.Intn(2) == 0 {
					mt = Rebind
				}
				b, bound := srv.byClient[client]
				rep := handle(NewMessage(mt, txn, d))
				if ia := rep.IAPDs[0]; bound != (len(ia.Prefixes) > 0) || bound && ia.Prefixes[0].Prefix != b.Prefix {
					t.Fatalf("trial %d step %d: %v of binding %+v (present %v) got %+v", trial, step, mt, b, bound, ia)
				}
			case r < 55:
				op = "Confirm"
				m := NewMessage(Confirm, txn, d)
				m.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Prefix: srv.byClient[client].Prefix}}}}
				handle(m)
			case r < 65:
				op = "Release"
				handle(NewMessage(Release, txn, d))
			case r < 80:
				op = "Acquire"
				b, err := srv.Acquire(d, txn)
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: Acquire: %v", trial, step, err)
				}
				if err == nil && srv.byClient[client] != b {
					t.Fatalf("trial %d step %d: Acquire returned %+v, server holds %+v", trial, step, b, srv.byClient[client])
				}
			case r < 92:
				op = "Reassign"
				old, bound := srv.byClient[client]
				b, err := srv.Reassign(d, txn)
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: Reassign: %v", trial, step, err)
				}
				if err == nil && (srv.byClient[client] != b || bound && b.Prefix == old.Prefix) {
					t.Fatalf("trial %d step %d: Reassign of %+v returned %+v, server holds %+v", trial, step, old, b, srv.byClient[client])
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
