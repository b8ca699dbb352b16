package radius

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
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
// bounded -fuzztime as a smoke gate in CI (scripts/verify.sh). Anything
// the decoder accepts must survive a re-encode round trip, and decoding
// into a packet that held another one must leave no attribute of it: the
// same error as a fresh decode, or the same bytes from Append, which
// keeps whatever dst already held.
func FuzzParse(f *testing.F) {
	valid := New(AccessRequest, 9)
	valid.AddString(AttrUserName, "fuzz")
	valid.AddU32(AttrSessionTimeout, 60)
	valid.AddPrefix6(AttrDelegatedIPv6Prefix, netip.MustParsePrefix("2003:1000:0:1100::/56"))
	seed := valid.Encode()
	f.Add(seed)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Parse(b)
		if err := sameDecode(seed, b, err, p); err != nil {
			t.Fatal(err)
		}
		if p == nil {
			return
		}
		wire := p.Encode()
		again, err := Parse(wire)
		if err != nil {
			t.Fatalf("encoded bytes do not decode: %v", err)
		}
		if b2 := again.Encode(); !bytes.Equal(b2, wire) {
			t.Fatalf("round trip changed the bytes:\n%x\n%x", wire, b2)
		}
	})
}

// sameDecode decodes seed into a packet, then b into the same packet,
// and checks the result against Parse's of b (err, p): the same error,
// or the same bytes from Append, which keeps whatever dst already held.
func sameDecode(seed, b []byte, err error, p *Packet) error {
	var reused Packet
	if err := reused.Decode(seed); err != nil {
		return err
	}
	errReused := reused.Decode(b)
	if (err == nil) != (errReused == nil) || (err != nil && err.Error() != errReused.Error()) {
		return fmt.Errorf("fresh decode: %v; decode into a used packet: %v", err, errReused)
	}
	if err != nil {
		return nil
	}
	if p == nil {
		return errors.New("nil packet without error")
	}
	if got, want := reused.Append([]byte("pre")), p.Encode(); string(got) != "pre"+string(want) {
		return fmt.Errorf("reused packet appends %x, fresh one encodes %x", got, want)
	}
	return nil
}
