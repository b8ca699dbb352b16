package cdn

import (
	"net/netip"
	"testing"

	"dynamips/internal/netutil"
	"dynamips/internal/rir"
)

// TestFilterMatchesKeep: the verdict cache answers Env.Keep record by
// record, over generated streams and over hand-built key sequences.
func TestFilterMatchesKeep(t *testing.T) {
	t.Run("operator streams", testFilterOperatorStreams)
	t.Run("key changes", testFilterKeyChanges)
	t.Run("zero pair first", testFilterZeroPairFirst)
}

// testFilterOperatorStreams runs every operator's raw stream, with
// mismatches frequent enough that the verdict flips every few records.
func testFilterOperatorStreams(t *testing.T) {
	cfg := DefaultGenConfig(11)
	cfg.Scale = 0.05
	cfg.Days = 60
	cfg.MismatchFrac = 0.3
	cfg = cfg.Normalized()
	env := NewEnv(cfg.OperatorSet())
	var recs, dropped, flips int
	for oi := range env.Ops {
		f := env.NewFilter()
		prev := true
		err := EmitOperator(oi, cfg, func(a Association) error {
			got, want := f.Keep(a), env.Keep(a)
			if got != want {
				t.Fatalf("operator %d record %d %v: Filter.Keep = %v, Env.Keep = %v", oi, recs, a, got, want)
			}
			recs++
			if !want {
				dropped++
			}
			if want != prev {
				flips++
			}
			prev = want
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if dropped == 0 || dropped == recs || flips < recs/10 {
		t.Fatalf("%d records, %d dropped, %d flips: the stream does not exercise the cache", recs, dropped, flips)
	}
}

func k24Of(s string) uint32 { return netutil.U32(netip.MustParseAddr(s)) >> 8 }
func k64Of(s string) uint64 { hi, _ := netutil.U128(netip.MustParseAddr(s)); return hi }

// testFilterKeyChanges: a record that changes only its /24, or only its
// /64, gets a fresh verdict; so does the record that changes it back.
func testFilterKeyChanges(t *testing.T) {
	op := func(name string, asn uint32, v4, v6 string) Operator {
		return Operator{Name: name, ASN: asn, Registry: rir.RIPENCC,
			BGP4: netip.MustParsePrefix(v4), BGP6: netip.MustParsePrefix(v6)}
	}
	env := NewEnv([]Operator{
		op("a", 65001, "10.0.0.0/8", "2001:db8::/32"),
		op("b", 65002, "11.0.0.0/8", "2001:db9::/32"),
	})
	a24, b24, unrouted24 := k24Of("10.1.2.0"), k24Of("11.1.2.0"), k24Of("12.1.2.0")
	a64, b64 := k64Of("2001:db8:1::"), k64Of("2001:db9:1::")
	seq := []struct {
		k24  uint32
		k64  uint64
		keep bool
	}{
		{a24, a64, true},
		{a24, a64, true},
		{b24, a64, false}, // only K24 changes
		{b24, a64, false},
		{a24, a64, true},
		{unrouted24, a64, false},
		{a24, a64, true},
		{a24, b64, false}, // only K64 changes
		{a24, b64, false},
		{a24, a64, true},
		{b24, b64, true}, // both change, to another operator
		{b24, a64, false},
	}
	f := env.NewFilter()
	for i, s := range seq {
		a := Association{K24: s.k24, K64: s.k64, Day: uint16(i), Hits: 1}
		if got := f.Keep(a); got != s.keep || got != env.Keep(a) {
			t.Errorf("record %d (%v, %v): Filter.Keep = %v, want %v (Env.Keep %v)", i, a.P24(), a.P64(), got, s.keep, env.Keep(a))
		}
	}
}

// testFilterZeroPairFirst: the zero pair is a real key. Under operators
// announcing 0.0.0.0/8 and ::/8 from one ASN, a first record with
// K24 == 0 and K64 == 0 is kept; a cache that trusted its zero value
// would drop it.
func testFilterZeroPairFirst(t *testing.T) {
	env := NewEnv([]Operator{{Name: "zero", ASN: 64512, Registry: rir.RIPENCC,
		BGP4: netip.MustParsePrefix("0.0.0.0/8"), BGP6: netip.MustParsePrefix("::/8")}})
	a := Association{Day: 3, Hits: 1}
	if !env.Keep(a) {
		t.Fatal("Env.Keep drops the zero pair; the fixture is wrong")
	}
	f := env.NewFilter()
	if !f.Keep(a) {
		t.Fatal("Filter.Keep drops the zero pair on the first record")
	}
}
