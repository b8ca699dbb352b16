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
