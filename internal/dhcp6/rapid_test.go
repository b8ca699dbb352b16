package dhcp6

import (
	"net/netip"
	"testing"
)

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
	// The binding is committed: a renew succeeds immediately.
	if ia := renew(t, srv, duid(1), 2); len(ia.Prefixes) != 1 {
		t.Errorf("renew after rapid commit: status %d, no delegation", ia.Status)
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

func TestConfirm(t *testing.T) {
	srv, _ := newTestServer(86400, 56)
	b, err := srv.Acquire(duid(1), 1)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	confirm := func(p netip.Prefix) uint16 {
		req := NewMessage(Confirm, 2, duid(1))
		req.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Prefix: p, Valid: 60, Preferred: 60}}}}
		rep, err := srv.Handle(req)
		if err != nil {
			t.Fatalf("Handle(Confirm): %v", err)
		}
		return rep.IAPDs[0].Status
	}
	if st := confirm(b.Prefix); st != StatusSuccess {
		t.Errorf("confirm of own delegation = status %d", st)
	}
	if st := confirm(netip.MustParsePrefix("2001:db8:dead:be00::/56")); st != StatusNotOnLink {
		t.Errorf("confirm of foreign delegation = status %d, want NotOnLink", st)
	}
	// After the server loses state, even the right prefix is NotOnLink.
	srv.LoseState()
	if st := confirm(b.Prefix); st != StatusNotOnLink {
		t.Errorf("confirm after LoseState = status %d, want NotOnLink", st)
	}
}

func TestConfirmTypeName(t *testing.T) {
	if Confirm.String() != "CONFIRM" {
		t.Error("Confirm name wrong")
	}
}
