package dhcp4

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

// leased returns the address of hw's lease, if its record has one.
func leased(s *Server, hw HWAddr) (netip.Addr, bool) {
	c := s.clients[hw]
	return netip.AddrFrom4(c.addr), c.leased
}

// heldCount returns the number of leases whose client holds their
// address. A sticky server's released leases are remembered, not held.
func heldCount(s *Server) int {
	n := 0
	for h := range s.clients {
		a, ok := leased(s, h)
		if cur, held := s.pool.Holder(a); ok && held && cur == h {
			n++
		}
	}
	return n
}

// state renders every record and every address's holder of pool: what a
// refused message must leave as it found it.
func state(s *Server, pool netip.Prefix) string {
	var holders []string
	for i := uint64(0); i < 1<<(32-pool.Bits()); i++ {
		a, _ := netutil.HostAddr(pool, i)
		h, ok := s.pool.Holder(a)
		holders = append(holders, fmt.Sprint(h, ok))
	}
	return fmt.Sprint(s.clients, holders)
}

// checkHolders walks every address of pool: each held one's holder must
// be a client whose lease is on that address, so no client holds two
// addresses and held addresses never outnumber clients. A non-sticky
// server keeps no lease whose address its client does not hold.
func checkHolders(t *testing.T, s *Server, pool netip.Prefix, clients int, step string) {
	t.Helper()
	held := 0
	for i := uint64(0); i < 1<<(32-pool.Bits()); i++ {
		a, err := netutil.HostAddr(pool, i)
		if err != nil {
			t.Fatal(err)
		}
		h, ok := s.pool.Holder(a)
		if !ok {
			continue
		}
		held++
		if l, ok := leased(s, h); !ok || l != a {
			t.Fatalf("after %s: %v is held by %v, whose lease is %v (present %v)", step, a, h, l, ok)
		}
	}
	if held > clients {
		t.Fatalf("after %s: %d addresses held by %d clients", step, held, clients)
	}
	if held != heldCount(s) {
		t.Fatalf("after %s: %d addresses held, %d leases hold theirs", step, held, heldCount(s))
	}
	leases := 0
	for _, c := range s.clients {
		if c.leased {
			leases++
		}
	}
	if !s.cfg.Sticky && leases != held {
		t.Fatalf("after %s: non-sticky server keeps %d leases for %d held addresses", step, leases, held)
	}
}

// TestServerHolderInvariant drives sticky and non-sticky servers through
// seeded random sequences of Discover, Request and Release (through
// Handle), Acquire and Forget, on pools both larger and smaller than the
// client population, and checks the holder invariant after every step.
// Leases never expire, so a path that rebinds a client without freeing
// its old address would leak that address for good. A Request naming
// its address only in ciaddr, the renewal no sender makes, must NAK and
// change no record or holder.
func TestServerHolderInvariant(t *testing.T) {
	const clients = 6
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sticky := trial%2 == 0
		pool := netip.PrefixFrom(netip.MustParseAddr("100.64.10.0"), 29+rng.Intn(3))
		srv, clk := newTestServer(3600, sticky, pool.String())
		offered := map[HWAddr]netip.Addr{}
		for step := 0; step < 300; step++ {
			clk.t += int64(rng.Intn(7200))
			h := hw(byte(1 + rng.Intn(clients)))
			xid := uint32(step)
			var op string
			switch rng.Intn(7) {
			case 0:
				op = "Discover"
				rep, err := srv.Handle(NewMessage(Discover, xid, h))
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: Discover: %v", trial, step, err)
				}
				if err == nil {
					offered[h] = rep.YIAddr
				}
			case 1, 2:
				op = "Request"
				req := NewMessage(Request, xid, h)
				var want netip.Addr
				switch rng.Intn(3) {
				case 0:
					want = offered[h]
				case 1:
					if a, ok := leased(srv, h); ok {
						want = a
					}
				}
				if !want.IsValid() {
					want, _ = netutil.HostAddr(pool, uint64(rng.Intn(1<<(32-pool.Bits()))))
				}
				req.SetAddrOption(OptRequestedIP, want)
				rep, err := srv.Handle(req)
				if err != nil {
					t.Fatalf("trial %d step %d: Request: %v", trial, step, err)
				}
				if l, _ := leased(srv, h); rep.Type() == ACK && (rep.YIAddr != want || l != want) {
					t.Fatalf("trial %d step %d: ACK for %v, requested %v, lease %v", trial, step, rep.YIAddr, want, l)
				}
			case 3:
				op = "Release"
				if _, err := srv.Handle(NewMessage(Release, xid, h)); err != nil {
					t.Fatalf("trial %d step %d: Release: %v", trial, step, err)
				}
			case 4:
				op = "Acquire"
				l, err := srv.Acquire(h, xid)
				if err != nil && !errors.Is(err, ErrPoolExhausted) {
					t.Fatalf("trial %d step %d: Acquire: %v", trial, step, err)
				}
				if a, ok := leased(srv, h); err == nil && (!ok || a != l.Addr) {
					t.Fatalf("trial %d step %d: Acquire returned %+v, server leases %v (%v)", trial, step, l, a, ok)
				}
			case 5:
				op = "Forget"
				srv.Forget(h)
				if _, ok := srv.clients[h]; ok {
					t.Fatalf("trial %d step %d: Forget kept %v's record", trial, step, h)
				}
			default:
				op = "Request naming only ciaddr"
				req := NewMessage(Request, xid, h)
				if a, ok := leased(srv, h); ok {
					req.CIAddr = a
				} else {
					req.CIAddr = offered[h]
				}
				before := state(srv, pool)
				rep, err := srv.Handle(req)
				if err != nil {
					t.Fatalf("trial %d step %d: %s: %v", trial, step, op, err)
				}
				if rep.Type() != NAK {
					t.Fatalf("trial %d step %d: %s got %v, want NAK", trial, step, op, rep.Type())
				}
				if after := state(srv, pool); after != before {
					t.Fatalf("trial %d step %d: %s changed the server:\n%s\n%s", trial, step, op, before, after)
				}
			}
			checkHolders(t, srv, pool, clients, op)
		}
	}
}
