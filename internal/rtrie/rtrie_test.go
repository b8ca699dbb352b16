package rtrie

import (
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

func mp(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ma(s string) netip.Addr   { return netip.MustParseAddr(s) }

func TestInsertGetLookup(t *testing.T) {
	var tr Trie[string]
	entries := map[string]string{
		"10.0.0.0/8":       "rfc1918-a",
		"10.1.0.0/16":      "pool-1",
		"10.1.2.0/24":      "pool-1-2",
		"2003::/19":        "dtag",
		"2003:0:a000::/40": "dtag-pool",
		"0.0.0.0/0":        "default4",
		"::/0":             "default6",
	}
	for p, v := range entries {
		if !tr.Insert(mp(p), v) {
			t.Errorf("Insert(%s) reported existing", p)
		}
	}
	if tr.Len() != len(entries) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(entries))
	}
	// Re-insert replaces without growing.
	if tr.Insert(mp("10.0.0.0/8"), "replaced") {
		t.Error("re-insert reported fresh")
	}
	if tr.Len() != len(entries) {
		t.Errorf("Len after replace = %d", tr.Len())
	}

	lookups := []struct {
		addr string
		want string
		pfx  string
	}{
		{"10.1.2.3", "pool-1-2", "10.1.2.0/24"},
		{"10.1.9.9", "pool-1", "10.1.0.0/16"},
		{"10.200.0.1", "replaced", "10.0.0.0/8"},
		{"192.0.2.1", "default4", "0.0.0.0/0"},
		{"2003:0:a0ff::1", "dtag-pool", "2003:0:a000::/40"},
		{"2003:10::1", "dtag", "2003::/19"},
		{"2a02::1", "default6", "::/0"},
	}
	for _, l := range lookups {
		v, p, ok := tr.Lookup(ma(l.addr))
		if !ok || v != l.want || p != mp(l.pfx) {
			t.Errorf("Lookup(%s) = (%q, %v, %v), want (%q, %v, true)", l.addr, v, p, ok, l.want, l.pfx)
		}
	}
}

func TestLookupMiss(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mp("10.0.0.0/8"), 1)
	if _, _, ok := tr.Lookup(ma("11.0.0.1")); ok {
		t.Error("lookup outside table matched")
	}
	if _, _, ok := tr.Lookup(ma("2001:db8::1")); ok {
		t.Error("v6 lookup in v4-only table matched")
	}
}

func TestFamiliesIsolated(t *testing.T) {
	var tr Trie[int]
	tr.Insert(mp("::/0"), 6)
	if _, _, ok := tr.Lookup(ma("192.0.2.1")); ok {
		t.Error("IPv4 lookup matched ::/0")
	}
}

func TestWalkOrderAndCompleteness(t *testing.T) {
	var tr Trie[string]
	ins := []string{"10.0.0.0/8", "192.0.2.0/24", "2003::/19", "::/0", "2003:0:a000::/40"}
	for _, p := range ins {
		tr.Insert(mp(p), p)
	}
	var got []string
	tr.Walk(func(p netip.Prefix, v string) bool {
		if p.String() != v {
			t.Errorf("walk key %v carries value %q", p, v)
		}
		got = append(got, v)
		return true
	})
	want := []string{"10.0.0.0/8", "192.0.2.0/24", "::/0", "2003::/19", "2003:0:a000::/40"}
	if len(got) != len(want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order %v, want %v", got, want)
		}
	}
	// Early stop.
	var n int
	tr.Walk(func(netip.Prefix, string) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early-stop walk visited %d", n)
	}
}

// TestMappedPrefixKeyedAsIPv4: an IPv4-mapped prefix is the IPv4 prefix
// of Bits()-96 bits, so Lookup (which unmaps its address) matches it,
// Walk lists it, and inserting the plain IPv4 form replaces it.
func TestMappedPrefixKeyedAsIPv4(t *testing.T) {
	var tr Trie[string]
	if !tr.Insert(mp("::ffff:10.0.0.0/104"), "mapped") {
		t.Fatal("first insert reported existing")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	for _, a := range []string{"10.1.2.3", "::ffff:10.1.2.3"} {
		v, p, ok := tr.Lookup(ma(a))
		if !ok || v != "mapped" || p != mp("10.0.0.0/8") {
			t.Errorf("Lookup(%s) = (%q, %v, %v), want (\"mapped\", 10.0.0.0/8, true)", a, v, p, ok)
		}
	}
	var walked []netip.Prefix
	tr.Walk(func(p netip.Prefix, _ string) bool {
		walked = append(walked, p)
		return true
	})
	if len(walked) != 1 || walked[0] != mp("10.0.0.0/8") {
		t.Errorf("Walk visited %v, want [10.0.0.0/8]", walked)
	}
	if tr.Insert(mp("10.0.0.0/8"), "plain") {
		t.Error("IPv4 form of a stored mapped prefix reported fresh")
	}
	if tr.Len() != 1 {
		t.Errorf("Len after replace = %d, want 1", tr.Len())
	}
	// The whole mapped space is the IPv4 default route.
	tr.Insert(mp("::ffff:0.0.0.0/96"), "all-v4")
	if v, p, ok := tr.Lookup(ma("192.0.2.1")); !ok || v != "all-v4" || p != mp("0.0.0.0/0") {
		t.Errorf("Lookup(192.0.2.1) = (%q, %v, %v), want (\"all-v4\", 0.0.0.0/0, true)", v, p, ok)
	}
}

// TestLookupAgainstLinearScan cross-checks trie LPM against a brute-force
// linear scan over randomly generated tables and queries.
func TestLookupAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		var tr Trie[int]
		type entry struct {
			p netip.Prefix
			v int
		}
		var entries []entry
		for i := 0; i < 200; i++ {
			var p netip.Prefix
			if rng.Intn(2) == 0 {
				bits := rng.Intn(25) + 8
				a := netutil.AddrFromU32(rng.Uint32())
				p, _ = a.Prefix(bits)
			} else {
				bits := rng.Intn(57) + 8
				a := netutil.AddrFrom128(rng.Uint64(), rng.Uint64())
				p, _ = a.Prefix(bits)
			}
			tr.Insert(p, i)
			entries = append(entries, entry{p, i})
		}
		// Dedup: later inserts win, mirror that in the scan.
		for q := 0; q < 500; q++ {
			var a netip.Addr
			if rng.Intn(2) == 0 {
				a = netutil.AddrFromU32(rng.Uint32())
			} else {
				a = netutil.AddrFrom128(rng.Uint64(), rng.Uint64())
			}
			bestLen, bestVal := -1, -1
			for _, e := range entries {
				if e.p.Contains(a) {
					if e.p.Bits() > bestLen {
						bestLen, bestVal = e.p.Bits(), e.v
					} else if e.p.Bits() == bestLen {
						bestVal = e.v // later insert replaced earlier
					}
				}
			}
			v, p, ok := tr.Lookup(a)
			if (bestLen >= 0) != ok {
				t.Fatalf("trial %d: Lookup(%v) ok=%v, scan found=%v", trial, a, ok, bestLen >= 0)
			}
			if ok && (v != bestVal || p.Bits() != bestLen) {
				t.Fatalf("trial %d: Lookup(%v) = (%d, /%d), scan = (%d, /%d)",
					trial, a, v, p.Bits(), bestVal, bestLen)
			}
		}
	}
}

func TestInsertInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Insert of zero prefix did not panic")
		}
	}()
	var tr Trie[int]
	tr.Insert(netip.Prefix{}, 0)
}

func BenchmarkTrieLookup(b *testing.B) {
	var tr Trie[int]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		a := netutil.AddrFrom128(0x2000_0000_0000_0000|rng.Uint64()>>3, 0)
		p, _ := a.Prefix(rng.Intn(33) + 16)
		tr.Insert(p, i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netutil.AddrFrom128(0x2000_0000_0000_0000|rng.Uint64()>>3, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

// BenchmarkLinearScanLookup is the ablation baseline for the trie: the same
// LPM implemented as a linear scan, demonstrating why the pipeline uses a
// radix trie for pfx2as classification.
func BenchmarkLinearScanLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	type entry struct {
		p netip.Prefix
		v int
	}
	entries := make([]entry, 10000)
	for i := range entries {
		a := netutil.AddrFrom128(0x2000_0000_0000_0000|rng.Uint64()>>3, 0)
		p, _ := a.Prefix(rng.Intn(33) + 16)
		entries[i] = entry{p, i}
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netutil.AddrFrom128(0x2000_0000_0000_0000|rng.Uint64()>>3, rng.Uint64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		best := -1
		for _, e := range entries {
			if e.p.Bits() > best && e.p.Contains(a) {
				best = e.p.Bits()
			}
		}
	}
}
