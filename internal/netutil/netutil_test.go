package netutil

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustAddr(t *testing.T, s string) netip.Addr {
	t.Helper()
	a, err := netip.ParseAddr(s)
	if err != nil {
		t.Fatalf("ParseAddr(%q): %v", s, err)
	}
	return a
}

func mustPrefix(t *testing.T, s string) netip.Prefix {
	t.Helper()
	p, err := netip.ParsePrefix(s)
	if err != nil {
		t.Fatalf("ParsePrefix(%q): %v", s, err)
	}
	return p
}

func TestU128RoundTrip(t *testing.T) {
	cases := []string{
		"::", "::1", "2001:db8::1", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
		"2003:40:aa00::", "fe80::1",
	}
	for _, s := range cases {
		a := mustAddr(t, s)
		hi, lo := U128(a)
		if got := AddrFrom128(hi, lo); got != a {
			t.Errorf("round trip %v: got %v (hi=%x lo=%x)", a, got, hi, lo)
		}
	}
}

func TestU128RoundTripProperty(t *testing.T) {
	f := func(hi, lo uint64) bool {
		ghi, glo := U128(AddrFrom128(hi, lo))
		return ghi == hi && glo == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestU32RoundTripProperty(t *testing.T) {
	f := func(v uint32) bool { return U32(AddrFromU32(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestU128IPv4Mapping(t *testing.T) {
	a := mustAddr(t, "192.0.2.1")
	hi, lo := U128(a)
	if hi != 0 || lo != 0xC0000201 {
		t.Errorf("U128(192.0.2.1) = %x, %x; want 0, c0000201", hi, lo)
	}
}

func TestU32PanicsOnIPv6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("U32 on IPv6 did not panic")
		}
	}()
	U32(mustAddr(t, "2001:db8::1"))
}

func TestPrefixKeys(t *testing.T) {
	a6 := mustAddr(t, "2604:3d08:4b80:aa00:1234:5678:9abc:def0")
	if got, want := Prefix64(a6), mustPrefix(t, "2604:3d08:4b80:aa00::/64"); got != want {
		t.Errorf("Prefix64 = %v, want %v", got, want)
	}
	hi, _ := U128(a6)
	if Key64(a6) != hi {
		t.Errorf("Key64 mismatch")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"2604:3d08:4b80:aa00::", "2604:3d08:4b80:aaf0::", 56}, // the paper's §5.2 example
		{"2001:db8::", "2001:db8::", 128},
		{"2001:db8::", "2001:db8::1", 127},
		{"8000::", "::", 0},
		{"2003::", "2003:8000::", 16},
		{"192.0.2.1", "192.0.2.1", 32},
		{"192.0.2.0", "192.0.3.0", 23},
		{"0.0.0.0", "128.0.0.0", 0},
		{"192.0.2.1", "2001:db8::1", 0}, // mixed family
	}
	for _, c := range cases {
		if got := CommonPrefixLen(mustAddr(t, c.a), mustAddr(t, c.b)); got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCommonPrefixLenSymmetricProperty(t *testing.T) {
	f := func(ahi, alo, bhi, blo uint64) bool {
		a, b := AddrFrom128(ahi, alo), AddrFrom128(bhi, blo)
		return CommonPrefixLen(a, b) == CommonPrefixLen(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommonPrefixLenConsistentWithPrefixContainment(t *testing.T) {
	// If CPL(a,b) >= L then both are inside the same /L.
	f := func(ahi, alo, bhi uint64) bool {
		a, b := AddrFrom128(ahi, alo), AddrFrom128(bhi, alo)
		n := CommonPrefixLen(a, b)
		if n == 0 {
			return true
		}
		p, err := a.Prefix(n)
		if err != nil {
			return false
		}
		return p.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommonPrefixLen64Caps(t *testing.T) {
	a := mustPrefix(t, "2001:db8:1:2::/64")
	if got := CommonPrefixLen64(a, a); got != 64 {
		t.Errorf("CPL64 of identical prefixes = %d, want 64", got)
	}
	b := mustPrefix(t, "2001:db8:1:3::/64")
	if got := CommonPrefixLen64(a, b); got != 63 {
		t.Errorf("CPL64 = %d, want 63", got)
	}
}

func TestZeroBitsBefore64(t *testing.T) {
	cases := []struct {
		p    string
		want int
	}{
		{"2604:3d08:4b80:aa00::/64", 9}, // 0xaa00 has 9 trailing zero bits
		{"2604:3d08:4b80:aaf0::/64", 4},
		{"2604:3d08:4b80:aaf1::/64", 0},
		{"2003:40:aa:0::/64", 17}, // 0x00aa0000 has 17 trailing zero bits
		{"::/64", 64},
		{"2001:db8::/64", 35}, // 0x20010db800000000 has 35 trailing zeros
	}
	for _, c := range cases {
		if got := ZeroBitsBefore64(mustPrefix(t, c.p)); got != c.want {
			t.Errorf("ZeroBitsBefore64(%s) = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestZeroBitsBefore64Of(t *testing.T) {
	set := []netip.Prefix{
		mustPrefix(t, "2003:40:aa:100::/64"),
		mustPrefix(t, "2003:40:bb:f00::/64"),
		mustPrefix(t, "2003:40:cc:200::/64"),
	}
	if got := ZeroBitsBefore64Of(set); got != 8 {
		t.Errorf("intersection = %d, want 8", got)
	}
	if got := ZeroBitsBefore64Of(nil); got != 0 {
		t.Errorf("empty set = %d, want 0", got)
	}
}

func TestNibbleZeroRunAndInferredDelegation(t *testing.T) {
	cases := []struct {
		p      string
		run    int
		length int
		ok     bool
	}{
		{"2001:db8:1:fff0::/64", 4, 60, true},
		{"2001:db8:1:ff00::/64", 8, 56, true},
		{"2001:db8:1:f000::/64", 12, 52, true},
		{"2001:db8:1::/64", 16, 48, true},
		{"2001:db8::/64", 32, 48, true}, // capped at /48 bucket
		{"2001:db8:1:ffff::/64", 0, 0, false},
		{"2001:db8:1:fff8::/64", 0, 0, false}, // 3 zero bits: below nibble
	}
	for _, c := range cases {
		p := mustPrefix(t, c.p)
		if got := NibbleZeroRun(p); got != c.run {
			t.Errorf("NibbleZeroRun(%s) = %d, want %d", c.p, got, c.run)
		}
		l, ok := InferredDelegation(p)
		if ok != c.ok || l != c.length {
			t.Errorf("InferredDelegation(%s) = (%d, %v), want (%d, %v)", c.p, l, ok, c.length, c.ok)
		}
	}
}

func TestSubPrefix(t *testing.T) {
	parent := mustPrefix(t, "2003::/19")
	p, err := SubPrefix(parent, 40, 5)
	if err != nil {
		t.Fatalf("SubPrefix: %v", err)
	}
	if want := mustPrefix(t, "2003:0:500::/40"); p != want {
		t.Errorf("SubPrefix = %v, want %v", p, want)
	}

	// /56 inside a /40.
	p2, err := SubPrefix(p, 56, 1)
	if err != nil {
		t.Fatalf("SubPrefix: %v", err)
	}
	if want := mustPrefix(t, "2003:0:500:100::/56"); p2 != want {
		t.Errorf("SubPrefix = %v, want %v", p2, want)
	}

	// Straddling the /64 boundary: /96 inside a /56.
	p3, err := SubPrefix(mustPrefix(t, "2001:db8:0:ff00::/56"), 96, 0x1_0000_0001)
	if err != nil {
		t.Fatalf("SubPrefix: %v", err)
	}
	if want := mustPrefix(t, "2001:db8:0:ff01:0:1::/96"); p3 != want {
		t.Errorf("SubPrefix straddle = %v, want %v", p3, want)
	}

	// IPv4.
	p4, err := SubPrefix(mustPrefix(t, "10.0.0.0/8"), 24, 300)
	if err != nil {
		t.Fatalf("SubPrefix v4: %v", err)
	}
	if want := mustPrefix(t, "10.1.44.0/24"); p4 != want {
		t.Errorf("SubPrefix v4 = %v, want %v", p4, want)
	}

	if _, err := SubPrefix(parent, 10, 0); err == nil {
		t.Error("length shorter than parent did not fail")
	}
	if _, err := SubPrefix(mustPrefix(t, "10.0.0.0/24"), 26, 4); err == nil {
		t.Error("out-of-range index did not fail")
	}
}

func TestSubPrefixContainedProperty(t *testing.T) {
	f := func(idx uint16) bool {
		parent := netip.MustParsePrefix("2003::/19")
		p, err := SubPrefix(parent, 40, uint64(idx))
		if err != nil {
			return false
		}
		return ContainsPrefix(parent, p) && p.Bits() == 40
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHostAddr(t *testing.T) {
	a, err := HostAddr(mustPrefix(t, "203.0.113.0/24"), 77)
	if err != nil {
		t.Fatalf("HostAddr: %v", err)
	}
	if want := mustAddr(t, "203.0.113.77"); a != want {
		t.Errorf("HostAddr = %v, want %v", a, want)
	}
	if _, err := HostAddr(mustPrefix(t, "203.0.113.0/24"), 256); err == nil {
		t.Error("overflowing host offset did not fail")
	}
	a6, err := HostAddr(mustPrefix(t, "2001:db8:1:2::/64"), 0xdeadbeef)
	if err != nil {
		t.Fatalf("HostAddr v6: %v", err)
	}
	if want := mustAddr(t, "2001:db8:1:2::dead:beef"); a6 != want {
		t.Errorf("HostAddr v6 = %v, want %v", a6, want)
	}
}

func TestContainsPrefix(t *testing.T) {
	cases := []struct {
		outer, inner string
		want         bool
	}{
		{"2003::/19", "2003:0:a0::/40", true},
		{"2003:0:a0::/40", "2003::/19", false},
		{"10.0.0.0/8", "10.200.0.0/16", true},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"10.0.0.0/8", "2001:db8::/32", false},
	}
	for _, c := range cases {
		if got := ContainsPrefix(mustPrefix(t, c.outer), mustPrefix(t, c.inner)); got != c.want {
			t.Errorf("ContainsPrefix(%s, %s) = %v, want %v", c.outer, c.inner, got, c.want)
		}
	}
}

func TestScrambleAndZeroLowBits(t *testing.T) {
	p := mustPrefix(t, "2003:40:aa:ff00::/64")
	// Scrambling with zero bits zeroes them: the lowest /64 of the
	// delegation, what zeroing CPEs announce.
	z := ScrambleBits(p, 56, 0)
	if want := mustPrefix(t, "2003:40:aa:ff00::/64"); z != want {
		t.Errorf("ScrambleBits(56, 0) = %v, want %v (bits below /56 were already zero)", z, want)
	}
	z = ScrambleBits(p, 48, 0)
	if want := mustPrefix(t, "2003:40:aa::/64"); z != want {
		t.Errorf("ScrambleBits(48, 0) = %v, want %v", z, want)
	}
	s := ScrambleBits(p, 56, 0xab)
	if want := mustPrefix(t, "2003:40:aa:ffab::/64"); s != want {
		t.Errorf("ScrambleBits = %v, want %v", s, want)
	}
	// Scrambling must preserve everything above fromBit.
	if CommonPrefixLen64(p, s) < 56 {
		t.Errorf("scramble disturbed bits above /56: %v vs %v", p, s)
	}
	// Out-of-range fromBit is a no-op.
	if got := ScrambleBits(p, -1, 7); got != p {
		t.Errorf("ScrambleBits(-1) = %v, want %v", got, p)
	}
	if got := ScrambleBits(p, 64, 7); got != p {
		t.Errorf("ScrambleBits(64) = %v, want %v", got, p)
	}
}

func TestScramblePreservesUpperBitsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		hi := rng.Uint64()
		p := netip.PrefixFrom(AddrFrom128(hi, 0), 64)
		from := rng.Intn(64)
		s := ScrambleBits(p, from, rng.Uint64())
		if CommonPrefixLen(p.Addr(), s.Addr()) < from {
			t.Fatalf("scramble from %d disturbed upper bits: %v -> %v", from, p, s)
		}
	}
}

func TestSameAtLength(t *testing.T) {
	a := mustAddr(t, "2003:40:aa:100::1")
	b := mustAddr(t, "2003:40:aa:f00::1")
	if !SameAtLength(a, b, 48) {
		t.Error("expected same /48")
	}
	if SameAtLength(a, b, 56) {
		t.Error("did not expect same /56")
	}
}

func TestComparePrefix(t *testing.T) {
	mp := func(s string) netip.Prefix { return netip.MustParsePrefix(s) }
	cases := []struct {
		a, b string
		want int
	}{
		{"2.0.0.0/8", "10.0.0.0/8", -1}, // string order would invert this
		{"10.0.0.0/8", "2.0.0.0/8", 1},
		{"10.0.0.0/8", "10.0.0.0/8", 0},
		{"10.0.0.0/8", "10.0.0.0/16", -1}, // less specific first
		{"2003:1000::/40", "2003:2000::/40", -1},
		{"192.0.2.0/24", "2003::/19", -1}, // v4 sorts before v6, as Addr.Compare does
	}
	for _, c := range cases {
		if got := ComparePrefix(mp(c.a), mp(c.b)); got != c.want {
			t.Errorf("ComparePrefix(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}
