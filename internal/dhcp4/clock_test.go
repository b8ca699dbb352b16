package dhcp4

import "testing"

// TestClientExpiryMatchesServerClock pins the determinism fix from the
// dynalint audit: the lease expiry the client side derives from an ACK
// (Acquire, the entry point the simulators use) is computed on the
// injected simulation clock, not the wall clock, so it is the virtual
// epoch plus the lease the server advertised.
func TestClientExpiryMatchesServerClock(t *testing.T) {
	srv, clk := newTestServer(3600, true)
	clk.t = 1_000_000 // a virtual epoch nowhere near wall time

	l, err := srv.Acquire(hw(77), 1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if want := clk.t + 3600; l.Expiry != want {
		t.Errorf("client lease expiry %d, want %d (virtual clock + lease)", l.Expiry, want)
	}

	// Advance the virtual clock and acquire again, which renews the bound
	// address: the refreshed expiry must track the virtual epoch, which a
	// wall-clock computation cannot.
	clk.t += 1800
	l2, err := srv.Acquire(hw(77), 2)
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if l2.Addr != l.Addr {
		t.Errorf("re-Acquire moved the lease %v -> %v", l.Addr, l2.Addr)
	}
	if want := clk.t + 3600; l2.Expiry != want {
		t.Errorf("renewed lease expiry %d, want %d", l2.Expiry, want)
	}
	if a, ok := leased(srv, hw(77)); !ok || a != l2.Addr {
		t.Fatalf("server's lease of the client is %v (%v), want %v", a, ok, l2.Addr)
	}
}
