package radius

import (
	"math/rand"
	"testing"
)

// TestParseNeverPanics: RADIUS packets arrive from the network; parsing
// must reject garbage without panicking.
func TestParseNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Parse panicked: %v", r)
		}
	}()
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		Parse(b) //nolint:errcheck // errors are expected
	}
	valid := New(AccessRequest, 9)
	valid.AddString(AttrUserName, "fuzz")
	valid.AddU32(AttrSessionTimeout, 60)
	wire := valid.Encode()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), wire...)
		for k := 0; k < 3; k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if p, err := Parse(b); err == nil && p == nil {
			t.Fatal("nil packet without error")
		}
	}
}

// FuzzParse is the native fuzz target for the RADIUS codec, run with a
// bounded -fuzztime as a smoke gate in CI (scripts/verify.sh).
func FuzzParse(f *testing.F) {
	valid := New(AccessRequest, 9)
	valid.AddString(AttrUserName, "fuzz")
	valid.AddU32(AttrSessionTimeout, 60)
	f.Add(valid.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Parse(b)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("nil packet without error")
		}
		p.Encode()
	})
}
