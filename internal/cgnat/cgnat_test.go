package cgnat

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
)

func testGateway() *Gateway {
	return NewGateway(DefaultConfig(netip.MustParsePrefix("203.0.113.0/30")))
}

func TestCapacity(t *testing.T) {
	g := testGateway()
	// 4 public addresses x (65536-1024)/512 = 126 blocks each.
	if g.Capacity() != 4*126 {
		t.Errorf("Capacity = %d, want %d", g.Capacity(), 4*126)
	}
}

func TestBind(t *testing.T) {
	g := testGateway()
	b, err := g.Bind("sub-1")
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if !netip.MustParsePrefix("203.0.113.0/30").Contains(b.Public) {
		t.Errorf("public %v outside pool", b.Public)
	}
	if b.Block != 1024 {
		t.Errorf("block = %d, want 1024", b.Block)
	}
	// Idempotent.
	b2, _ := g.Bind("sub-1")
	if b2 != b {
		t.Error("rebind created a new binding")
	}
	if g.Subscribers() != 1 {
		t.Errorf("Subscribers = %d, want 1", g.Subscribers())
	}
}

func TestExhaustion(t *testing.T) {
	g := NewGateway(Config{
		Public:        []netip.Prefix{netip.MustParsePrefix("203.0.113.0/32")},
		PortsPerBlock: 16384,
		PortFloor:     1024,
	})
	// (65536-1024)/16384 = 3 blocks total.
	for i := 0; i < 3; i++ {
		if _, err := g.Bind(fmt.Sprintf("s%d", i)); err != nil {
			t.Fatalf("Bind %d: %v", i, err)
		}
	}
	if _, err := g.Bind("overflow"); !errors.Is(err, ErrExhausted) {
		t.Errorf("4th subscriber err = %v", err)
	}
	if g.Subscribers() != 3 {
		t.Errorf("Subscribers = %d", g.Subscribers())
	}
}

// TestNoPortOverlapAcrossSubscribers: every bound subscriber owns a
// distinct port block, blocks stay inside the port space, and a public
// address fills before the next one is used.
func TestNoPortOverlapAcrossSubscribers(t *testing.T) {
	g := testGateway()
	type key struct {
		pub   netip.Addr
		block int
	}
	seen := map[key]string{}
	var last netip.Addr
	for i := 0; i < g.Capacity(); i++ {
		name := fmt.Sprintf("s%d", i)
		b, err := g.Bind(name)
		if err != nil {
			t.Fatalf("Bind %s: %v", name, err)
		}
		k := key{b.Public, b.Block}
		if owner, dup := seen[k]; dup {
			t.Fatalf("%v:%d shared by %s and %s", b.Public, b.Block, owner, name)
		}
		seen[k] = name
		if b.Block < 1024 || b.Block+512 > 65536 {
			t.Fatalf("%s: block %d outside the translated port space", name, b.Block)
		}
		if b.Public.Less(last) {
			t.Fatalf("%s bound to %v after %v: addresses not filled in order", name, b.Public, last)
		}
		last = b.Public
	}
	if _, err := g.Bind("late"); !errors.Is(err, ErrExhausted) {
		t.Errorf("Bind on a full gateway: err = %v, want ErrExhausted", err)
	}
}

func TestNewGatewayPanics(t *testing.T) {
	pub := []netip.Prefix{netip.MustParsePrefix("203.0.113.0/30")}
	for name, cfg := range map[string]Config{
		"no public":  {PortsPerBlock: 512},
		"zero block": {Public: pub},
		"bad floor":  {Public: pub, PortsPerBlock: 512, PortFloor: 70000},
		"v6 public": {Public: []netip.Prefix{netip.MustParsePrefix("2001:db8::/64")},
			PortsPerBlock: 512},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewGateway did not panic", name)
				}
			}()
			NewGateway(cfg)
		}()
	}
}
