package dhcp6

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
)

// TestUnmarshalNeverPanics: the decoder parses attacker-controlled
// datagrams and must never panic.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Unmarshal panicked: %v", r)
		}
	}()
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(300))
		rng.Read(b)
		Unmarshal(b) //nolint:errcheck // errors are expected
	}
	valid := NewMessage(Request, 7, duid(1))
	valid.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Valid: 60, Preferred: 60,
		Prefix: netip.MustParsePrefix("2003:1000:0:1100::/56")}}}}
	wire := valid.Marshal()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), wire...)
		for k := 0; k < 3; k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		Unmarshal(b) //nolint:errcheck
	}
}

// FuzzUnmarshal is the native fuzz target for the DHCPv6 codec, run with a
// bounded -fuzztime as a smoke gate in CI (scripts/verify.sh). Anything
// the decoder accepts must survive a re-marshal round trip, and decoding
// into a message that held another one must leave nothing of it — no
// identifier, IA_PD or prefix: the same error as a fresh decode, or the
// same bytes from Append, which keeps whatever dst already held.
func FuzzUnmarshal(f *testing.F) {
	valid := NewMessage(Request, 7, duid(1))
	valid.ServerID = duid(2)
	valid.IAPDs = []IAPD{{IAID: 1, Prefixes: []IAPrefix{{Valid: 60, Preferred: 60,
		Prefix: netip.MustParsePrefix("2003:1000:0:1100::/56")}}}, {IAID: 2, Status: StatusNoBinding, StatusOK: true}}
	valid.Status, valid.StatusOK, valid.RapidCommit = StatusSuccess, true, true
	seed := valid.Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		var reused Message
		if err := reused.Decode(seed); err != nil {
			t.Fatal(err)
		}
		errReused := reused.Decode(b)
		if (err == nil) != (errReused == nil) || (err != nil && err.Error() != errReused.Error()) {
			t.Fatalf("fresh decode: %v; decode into a used message: %v", err, errReused)
		}
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("nil message without error")
		}
		wire := m.Marshal()
		if got := reused.Append([]byte("pre")); string(got) != "pre"+string(wire) {
			t.Fatalf("reused message appends %x, fresh one marshals %x", got, wire)
		}
		again, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("marshalled bytes do not decode: %v", err)
		}
		if b2 := again.Marshal(); !bytes.Equal(b2, wire) {
			t.Fatalf("round trip changed the bytes:\n%x\n%x", wire, b2)
		}
	})
}
