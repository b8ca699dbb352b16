package dhcp4

import "testing"

func TestServerSetsT1T2(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	offer, err := srv.Handle(NewMessage(Discover, 1, hw(1)))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	t1, ok1 := offer.U32Option(OptRenewalTime)
	t2, ok2 := offer.U32Option(OptRebindingTime)
	if !ok1 || !ok2 {
		t.Fatal("T1/T2 missing from OFFER")
	}
	if t1 != 1800 || t2 != 3150 {
		t.Errorf("T1=%d T2=%d, want 1800, 3150", t1, t2)
	}
}

// TestAcquireAllocs pins a warmed server's DORA at zero allocations:
// Acquire builds both requests in one message the server keeps, and
// Handle builds each reply in the server's own, for a client that holds
// its lease and for one that released it first.
func TestAcquireAllocs(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	for i := byte(1); i <= 8; i++ {
		if _, err := srv.Acquire(hw(i), uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	rel := NewMessage(Release, 1, hw(3))
	if n := testing.AllocsPerRun(100, func() {
		if _, err := srv.Acquire(hw(3), 7); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Handle(rel); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Acquire(hw(3), 8); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Acquire: %v allocations, want 0", n)
	}
}
