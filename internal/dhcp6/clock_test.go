package dhcp6

import "testing"

// TestClientExpiryMatchesServerClock pins the determinism fix from the
// dynalint audit: the binding expiry the client side derives from a Reply
// (Acquire, the entry point the simulators use) is computed on the
// injected clock: the virtual epoch plus the valid lifetime the server
// advertised.
func TestClientExpiryMatchesServerClock(t *testing.T) {
	srv, clk := newTestServer(86400, 56)
	clk.t = 2_000_000

	b, err := srv.Acquire(duid(7), 1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if want := clk.t + 86400; b.Expiry != want {
		t.Errorf("client binding expiry %d, want %d (virtual clock + valid lifetime)", b.Expiry, want)
	}

	// Acquiring again renews the held delegation on the advanced clock.
	clk.t += 3600
	b2, err := srv.Acquire(duid(7), 2)
	if err != nil {
		t.Fatalf("re-Acquire: %v", err)
	}
	if b2.Prefix != b.Prefix {
		t.Errorf("re-Acquire moved the delegation %v -> %v", b.Prefix, b2.Prefix)
	}
	if want := clk.t + 86400; b2.Expiry != want {
		t.Errorf("renewed binding expiry %d, want %d", b2.Expiry, want)
	}
	if p, ok := bound(srv, duid(7)); !ok || p != b2.Prefix {
		t.Fatalf("server's binding of the client is %v (%v), want %v", p, ok, b2.Prefix)
	}
}
