package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"dynamips/internal/bng"
	"dynamips/internal/isp"
)

// startTestBNG churns a small daemon and serves its read-only API from
// an httptest listener, returning the base URL the generators dial.
func startTestBNG(t *testing.T) string {
	t.Helper()
	cfg := bng.DefaultConfig(300, 9)
	cfg.ShardBits = 2
	d, err := bng.New(cfg, bng.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Churn(2); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestBNGProfileFromDaemon(t *testing.T) {
	url := startTestBNG(t)

	// Default group: the daemon's first (residential, RADIUS, /56).
	p, err := bngProfile(url, "")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "bng/residential" || p.ASN != bngBaseASN {
		t.Errorf("default group: got %s AS%d, want bng/residential AS%d", p.Name, p.ASN, bngBaseASN)
	}
	if p.Backend != isp.BackendRADIUS {
		t.Errorf("residential: backend=%v, want RADIUS", p.Backend)
	}
	if p.LeaseHours != 4 || p.DelegatedLen != 56 {
		t.Errorf("residential: lease=%dh delegated=/%d, want 4h //56", p.LeaseHours, p.DelegatedLen)
	}
	if got := p.BGP4[0].String(); got != "10.0.0.0/9" {
		t.Errorf("residential v4 pool %s, want 10.0.0.0/9", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("remote profile fails Validate: %v", err)
	}

	// Named groups: DHCP backend and the bare-/64 mobile signature.
	if p, err = bngProfile(url, "business"); err != nil {
		t.Fatal(err)
	} else if p.Backend != isp.BackendDHCP {
		t.Errorf("business backend %v, want DHCP", p.Backend)
	}
	if p, err = bngProfile(url, "mobile"); err != nil {
		t.Fatal(err)
	} else if p.DelegatedLen != 64 {
		t.Errorf("mobile: delegated=/%d, want bare /64 cellular", p.DelegatedLen)
	}

	if _, err := bngProfile(url, "nonesuch"); err == nil {
		t.Error("unknown group name must error")
	}
	if _, err := bngProfile("http://127.0.0.1:1", ""); err == nil {
		t.Error("unreachable daemon must error")
	}
}

func TestBNGOperatorsFromDaemon(t *testing.T) {
	url := startTestBNG(t)
	ops, err := bngOperators(url)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("got %d operators, want one per daemon group (3)", len(ops))
	}
	total := 0
	for i, op := range ops {
		total += op.Subscribers
		if op.ASN != uint32(bngBaseASN+i) {
			t.Errorf("operator %s ASN %d, want %d", op.Name, op.ASN, bngBaseASN+i)
		}
		if wantMobile := op.DelegatedLen == 64; op.Mobile != wantMobile {
			t.Errorf("operator %s: mobile=%v with delegation /%d", op.Name, op.Mobile, op.DelegatedLen)
		}
		if !op.BGP4.IsValid() || !op.BGP6.IsValid() {
			t.Errorf("operator %s: missing prefixes", op.Name)
		}
	}
	if total != 300 {
		t.Errorf("operators cover %d subscribers, want the daemon's 300", total)
	}
	if !ops[2].Mobile || ops[0].Mobile {
		t.Errorf("mobile split wrong: residential=%v mobile=%v", ops[0].Mobile, ops[2].Mobile)
	}
}

// TestGenAtlasFromDaemon drives the full 'gen atlas -bng' path against
// a live API and checks the output is non-empty and reproducible.
func TestGenAtlasFromDaemon(t *testing.T) {
	url := startTestBNG(t)
	dir := t.TempDir()
	out1 := filepath.Join(dir, "a1.jsonl")
	out2 := filepath.Join(dir, "a2.jsonl")
	args := []string{"atlas", "-bng", url, "-probes", "20", "-hours", "48", "-seed", "5"}
	if err := cmdGen(append(args, "-o", out1)); err != nil {
		t.Fatal(err)
	}
	if err := cmdGen(append(args, "-o", out2)); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) == 0 {
		t.Fatal("gen atlas -bng wrote an empty dataset")
	}
	if !bytes.Equal(b1, b2) {
		t.Error("gen atlas -bng is not reproducible across runs")
	}
}

// TestGenCDNFromDaemon drives 'gen cdn -bng' end to end and checks the
// checkpoint incompatibility gate.
func TestGenCDNFromDaemon(t *testing.T) {
	url := startTestBNG(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "assoc.csv")
	err := cmdGen([]string{"cdn", "-bng", url, "-days", "3", "-scale", "0.2", "-seed", "5", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte{'\n'}); lines < 2 {
		t.Fatalf("gen cdn -bng wrote only %d lines", lines)
	}

	if err := cmdGen([]string{"cdn", "-bng", url, "-checkpoint", filepath.Join(dir, "ckpt"), "-o", out}); err == nil {
		t.Error("-bng with -checkpoint must be rejected")
	}
}
