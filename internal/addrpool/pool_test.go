package addrpool

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
)

var errDone = errors.New("test pool exhausted")

// strides are the walk strides the assignment servers use: dhcp4,
// radius and dhcp6.
var strides = []uint64{1, 257, 2557}

// TestPoolProperties checks the allocation contract over random pool
// sets, pool lengths and every stride in use.
func TestPoolProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		stride := strides[trial%len(strides)]
		var v4, v6 []netip.Prefix
		for i := 0; i < 1+rng.Intn(3); i++ {
			v4 = append(v4, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 24+rng.Intn(7)))
			v6 = append(v6, netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 0, byte(i)}), 48))
		}
		addrs, err := Addrs[int](v4, stride, errDone)
		if err != nil {
			t.Fatal(err)
		}
		checkPool(t, rng, addrs)
		prefixes, err := Prefixes[int](v6, 49+rng.Intn(6), stride, errDone)
		if err != nil {
			t.Fatal(err)
		}
		checkPool(t, rng, prefixes)
	}
}

func checkPool[U comparable](t *testing.T, rng *rand.Rand, p *Pool[U, int]) {
	t.Helper()
	// Every unit exactly once, each held by its hand-out index, then the
	// exhausted error.
	var units []U
	seen := make(map[U]bool)
	for {
		u, err := p.Next()
		if errors.Is(err, errDone) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if seen[u] {
			t.Fatalf("Next handed out %v twice", u)
		}
		seen[u] = true
		p.Hold(u, len(units))
		units = append(units, u)
	}
	if uint64(len(units)) != p.Size() {
		t.Fatalf("walk handed out %d units, pool size %d", len(units), p.Size())
	}
	exhausted := func(when string) {
		t.Helper()
		if u, err := p.Next(); !errors.Is(err, errDone) {
			t.Fatalf("%s: Next = %v, %v; want the exhausted error", when, u, err)
		}
	}
	exhausted("after the walk")

	// A non-holder's Free changes nothing.
	i := rng.Intn(len(units))
	if p.Free(units[i], i+1) {
		t.Fatalf("Free by a non-holder freed %v", units[i])
	}
	if h, ok := p.Holder(units[i]); !ok || h != i {
		t.Fatalf("Holder(%v) = %d, %v after a non-holder's Free; want %d", units[i], h, ok, i)
	}
	exhausted("after a non-holder's Free")

	// Frees by the holder come back last in, first out.
	j := rng.Intn(len(units))
	if !p.Free(units[i], i) {
		t.Fatalf("Free by the holder kept %v", units[i])
	}
	if j != i && !p.Free(units[j], j) {
		t.Fatalf("Free by the holder kept %v", units[j])
	}
	// Freeing an unheld unit changes nothing.
	if p.Free(units[i], i) {
		t.Fatalf("second Free of %v succeeded", units[i])
	}
	want := []int{j, i}
	if j == i {
		want = want[1:]
	}
	for _, k := range want {
		u, err := p.Next()
		if err != nil || u != units[k] {
			t.Fatalf("Next = %v, %v; want the last freed %v", u, err, units[k])
		}
		p.Hold(u, k)
	}
	exhausted("after re-holding the freed units")

	// Drop forgets every holder but keeps the free list.
	p.Free(units[i], i)
	p.Drop()
	for _, u := range units {
		if h, ok := p.Holder(u); ok {
			t.Fatalf("Holder(%v) = %d after Drop", u, h)
		}
	}
	if u, err := p.Next(); err != nil || u != units[i] {
		t.Fatalf("Next after Drop = %v, %v; want the freed %v", u, err, units[i])
	}
	exhausted("after Drop")

	// ForgetFreed empties the free list.
	p.Hold(units[i], i)
	p.Free(units[i], i)
	p.ForgetFreed()
	exhausted("after ForgetFreed")
}

func TestPoolConfigErrors(t *testing.T) {
	v4 := []netip.Prefix{netip.MustParsePrefix("10.0.0.0/24")}
	v6 := []netip.Prefix{netip.MustParsePrefix("2001:db8::/40")}
	for name, err := range map[string]error{
		"no pools":     second(Addrs[int](nil, 1, errDone)),
		"v6 as addrs":  second(Addrs[int](v6, 1, errDone)),
		"even stride":  second(Addrs[int](v4, 256, errDone)),
		"v4 as pfx":    second(Prefixes[int](v4, 28, 1, errDone)),
		"4in6 as pfx":  second(Prefixes[int]([]netip.Prefix{netip.MustParsePrefix("::ffff:10.0.0.0/104")}, 112, 1, errDone)),
		"pfx > 64":     second(Prefixes[int](v6, 96, 1, errDone)),
		"pfx < pool":   second(Prefixes[int](v6, 32, 1, errDone)),
		"zero stride":  second(Prefixes[int](v6, 56, 0, errDone)),
		"no v6 pools":  second(Prefixes[int](nil, 56, 1, errDone)),
		"mixed family": second(Addrs[int](append(v4, v6...), 1, errDone)),
		"overlap":      second(Addrs[int](append(v4, netip.MustParsePrefix("10.0.0.128/25")), 1, errDone)),
	} {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// TestWalkPositions checks the position inverse on the shapes bng
// shards carve, where a stride's inverse is not trivial: the walk order
// is (k*stride) mod size, a unit deep in the walk is found at its
// position, a foreign, unmasked or wrong-length unit is never held, and
// the holder table grows with the units walked, not the pool size.
func TestWalkPositions(t *testing.T) {
	const walk = 3000
	v4 := func(pool string, stride uint64) func(t *testing.T) {
		return func(t *testing.T) {
			pfx := netip.MustParsePrefix(pool)
			p, err := Addrs[int]([]netip.Prefix{pfx}, stride, errDone)
			if err != nil {
				t.Fatal(err)
			}
			size := uint64(1) << (32 - pfx.Bits())
			last := netutil.AddrFromU32(netutil.U32(pfx.Addr()) + uint32(size-1))
			checkWalk(t, p, walk, func(k uint64) netip.Addr {
				a, err := netutil.HostAddr(pfx, k*stride%size)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}, func(a netip.Addr) []netip.Addr {
				return []netip.Addr{
					netip.AddrFrom16(a.As16()), // a as 4-in-6
					pfx.Addr().Prev(),
					last.Next(),
					netip.MustParseAddr("2001:db8::1"),
					{},
				}
			})
		}
	}
	v6 := func(pool string, bits int, stride uint64) func(t *testing.T) {
		return func(t *testing.T) {
			pfx := netip.MustParsePrefix(pool)
			p, err := Prefixes[int]([]netip.Prefix{pfx}, bits, stride, errDone)
			if err != nil {
				t.Fatal(err)
			}
			size := uint64(1) << (bits - pfx.Bits())
			checkWalk(t, p, walk, func(k uint64) netip.Prefix {
				u, err := netutil.SubPrefix(pfx, bits, k*stride%size)
				if err != nil {
					t.Fatal(err)
				}
				return u
			}, func(u netip.Prefix) []netip.Prefix {
				hi, lo := netutil.U128(u.Addr())
				first, _ := netutil.U128(pfx.Addr())
				fs := []netip.Prefix{
					netip.PrefixFrom(netutil.AddrFrom128(hi, lo|1), bits), // unmasked
					netip.PrefixFrom(u.Addr(), bits-1),
					netip.PrefixFrom(u.Addr(), bits+1),
					netip.PrefixFrom(netutil.AddrFrom128(first-1<<(64-bits), 0), bits),       // just below the pool
					netip.PrefixFrom(netutil.AddrFrom128(first+1<<(64-pfx.Bits()), 0), bits), // just above it
					netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 24),
					netip.PrefixFrom(netip.MustParseAddr("::ffff:10.0.0.0"), bits),
					{},
				}
				if bits < 64 {
					fs = append(fs, netip.PrefixFrom(netutil.AddrFrom128(hi|1, lo), bits)) // unmasked in the first half
				}
				return fs
			})
		}
	}
	t.Run("v4 /17 stride 257", v4("10.0.128.0/17", 257))
	t.Run("v4 /12 stride 1", v4("10.128.0.0/12", 1))
	t.Run("v6 /42 of /56 stride 2557", v6("2001:db8:40::/42", 56, 2557))
	t.Run("v6 /42 of /64 stride 2557", v6("2001:db8:40::/42", 64, 2557))
	t.Run("v6 /42 of /64 stride 257", v6("2001:db8:4000::/42", 64, 257))
}

// checkWalk walks n units of p, each of which must be want(k) and sit
// at position k, holds each by its k, and checks the holder table and
// the units foreign(u) of a walked unit u, none of which is a unit of
// the pools.
func checkWalk[U comparable](t *testing.T, p *Pool[U, int], n int, want func(k uint64) U, foreign func(U) []U) {
	t.Helper()
	units := make([]U, n)
	for k := range units {
		u, err := p.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", k, err)
		}
		if w := want(uint64(k)); u != w {
			t.Fatalf("unit %d of the walk = %v, want %v", k, u, w)
		}
		if pos, ok := p.position(u); !ok || pos != k {
			t.Fatalf("position(%v) = %d, %v; want %d", u, pos, ok, k)
		}
		p.Hold(u, k)
		units[k] = u
	}
	if len(p.held) != n || uint64(n) >= p.Size() {
		t.Fatalf("holder table of %d after walking %d of %d units", len(p.held), n, p.Size())
	}
	for _, k := range []int{n - 1, n - 2, n / 2, 1} {
		u := units[k]
		if h, ok := p.Holder(u); !ok || h != k {
			t.Fatalf("Holder(%v) = %d, %v; want %d", u, h, ok, k)
		}
		for _, f := range foreign(u) {
			p.Hold(f, -1)
			if h, ok := p.Holder(f); ok {
				t.Fatalf("foreign unit %v of walked %v is held by %d", f, u, h)
			}
			if p.Free(f, -1) {
				t.Fatalf("foreign unit %v freed", f)
			}
		}
		if p.Free(u, k+1) {
			t.Fatalf("Free(%v) by a non-holder", u)
		}
		if !p.Free(u, k) {
			t.Fatalf("Free(%v) by its holder failed", u)
		}
		if _, ok := p.Holder(u); ok {
			t.Fatalf("%v still held after Free", u)
		}
		if got, err := p.Next(); err != nil || got != u {
			t.Fatalf("Next after freeing %v = %v, %v", u, got, err)
		}
		p.Hold(u, k)
	}
	if len(p.held) != n {
		t.Fatalf("holder table of %d after holding foreign units; %d walked", len(p.held), n)
	}
}

// TestCycleAllocs pins the pool's hot cycle, Next then Hold then Free,
// at zero allocations once the pool is warm.
func TestCycleAllocs(t *testing.T) {
	addrs, err := Addrs[int32]([]netip.Prefix{netip.MustParsePrefix("10.0.0.0/17")}, 257, errDone)
	if err != nil {
		t.Fatal(err)
	}
	prefixes, err := Prefixes[int32]([]netip.Prefix{netip.MustParsePrefix("2001:db8:40::/42")}, 64, 2557, errDone)
	if err != nil {
		t.Fatal(err)
	}
	for name, cycle := range map[string]func(){
		"addrs":    cycleOf(t, addrs),
		"prefixes": cycleOf(t, prefixes),
	} {
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%s: %v allocations per Next, Hold and Free, want 0", name, n)
		}
	}
}

// cycleOf warms p with a few held units and one freed, and returns one
// Next, Hold and Free cycle on it.
func cycleOf[U comparable](t *testing.T, p *Pool[U, int32]) func() {
	for h := int32(0); h < 100; h++ {
		u, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		p.Hold(u, h)
		if h == 50 {
			p.Free(u, h)
		}
	}
	return func() {
		u, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		p.Hold(u, 7)
		if !p.Free(u, 7) {
			t.Fatal("Free by the holder failed")
		}
	}
}

// FuzzPool decodes a byte string into a pool and a sequence of Next,
// Hold, Free, Drop and ForgetFreed operations and checks each against a
// map model of the pool: holders in a map, the free list as a stack,
// and the walk as the list of units in (k*stride) mod size order.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 3, 2, 0, 0, 4, 0})
	f.Add([]byte{0x17, 0, 1, 0, 0x23, 0x0b, 0x13, 0, 5, 0, 0})
	f.Add([]byte{0x2a, 0, 0, 3, 0x0b, 0x0b, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		// Header byte: stride (bits 0-1), first pool length (bits 2-3),
		// second pool or none (bits 4-5).
		stride := strides[int(b[0]&3)%len(strides)]
		pools := []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 0}), 28+int(b[0]>>2&3))}
		if n := int(b[0] >> 4 & 3); n > 0 {
			pools = append(pools, netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 1, 0, 0}), 27+n))
		}
		p, err := Addrs[int](pools, stride, errDone)
		if err != nil {
			t.Fatal(err)
		}
		var walk []netip.Addr
		for _, pool := range pools {
			size := uint64(1) << (32 - pool.Bits())
			for k := uint64(0); k < size; k++ {
				a, err := netutil.HostAddr(pool, k*stride%size)
				if err != nil {
					t.Fatal(err)
				}
				walk = append(walk, a)
			}
		}
		held := make(map[netip.Addr]int)
		var freed []netip.Addr
		cursor := 0
		next := func() (netip.Addr, bool) {
			for len(freed) > 0 {
				a := freed[len(freed)-1]
				freed = freed[:len(freed)-1]
				if _, ok := held[a]; !ok {
					return a, true
				}
			}
			for cursor < len(walk) {
				a := walk[cursor]
				cursor++
				if _, ok := held[a]; !ok {
					return a, true
				}
			}
			return netip.Addr{}, false
		}
		// Op byte: operation in bits 0-2 (Next, Next+Hold, Hold, Free,
		// Drop, ForgetFreed), holder in bits 3-4, unit index (into the
		// walk) in the bits above.
		for _, op := range b[1:] {
			h := int(op >> 3 & 3)
			u := walk[int(op>>5)%len(walk)]
			switch op & 7 {
			case 0, 1, 7:
				got, err := p.Next()
				want, ok := next()
				if !ok {
					if !errors.Is(err, errDone) {
						t.Fatalf("Next = %v, %v; want the exhausted error", got, err)
					}
					continue
				}
				if err != nil || got != want {
					t.Fatalf("Next = %v, %v; want %v", got, err, want)
				}
				if op&7 == 1 {
					p.Hold(got, h)
					held[got] = h
				}
			case 2:
				p.Hold(u, h)
				held[u] = h
			case 3, 4:
				cur, ok := held[u]
				want := ok && cur == h
				if want {
					delete(held, u)
					freed = append(freed, u)
				}
				if got := p.Free(u, h); got != want {
					t.Fatalf("Free(%v, %d) = %v; want %v", u, h, got, want)
				}
			case 5:
				p.Drop()
				held = make(map[netip.Addr]int)
			case 6:
				p.ForgetFreed()
				freed = nil
			}
			for _, a := range walk {
				gh, gok := p.Holder(a)
				wh, wok := held[a]
				if gok != wok || gh != wh {
					t.Fatalf("Holder(%v) = %d, %v; want %d, %v", a, gh, gok, wh, wok)
				}
			}
		}
	})
}
