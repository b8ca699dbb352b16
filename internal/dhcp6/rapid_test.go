package dhcp6

import "testing"

func TestRapidCommit(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	sol := NewMessage(Solicit, 1, duid(1))
	sol.RapidCommit = true
	rep, err := srv.Handle(sol)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if rep.Type != Reply || !rep.RapidCommit {
		t.Fatalf("rapid-commit solicit got %v (rapid=%v)", rep.Type, rep.RapidCommit)
	}
	if len(rep.IAPDs) != 1 || len(rep.IAPDs[0].Prefixes) != 1 {
		t.Fatalf("no delegation in rapid reply: %+v", rep.IAPDs)
	}
	// The binding is committed: the client holds the prefix at once.
	if p, ok := bound(srv, duid(1)); !ok || p != rep.IAPDs[0].Prefixes[0].Prefix {
		t.Errorf("after rapid commit the client is bound to %v (%v), want %v", p, ok, rep.IAPDs[0].Prefixes[0].Prefix)
	}
	if heldCount(srv) != 1 {
		t.Errorf("held bindings = %d", heldCount(srv))
	}
}

func TestRapidCommitWireRoundTrip(t *testing.T) {
	m := NewMessage(Solicit, 7, duid(2))
	m.RapidCommit = true
	got, err := Unmarshal(m.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !got.RapidCommit {
		t.Error("rapid commit option lost on the wire")
	}
	plain := NewMessage(Solicit, 7, duid(2))
	got2, err := Unmarshal(plain.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got2.RapidCommit {
		t.Error("rapid commit appeared from nowhere")
	}
}

func TestConfirmTypeName(t *testing.T) {
	if Confirm.String() != "CONFIRM" {
		t.Error("Confirm name wrong")
	}
}
