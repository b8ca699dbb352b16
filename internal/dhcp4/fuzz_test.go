package dhcp4

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
)

// TestUnmarshalNeverPanics feeds random and mutated-valid byte slices to
// the decoder: it may reject them, but must never panic — servers parse
// attacker-controlled datagrams.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Unmarshal panicked: %v", r)
		}
	}()
	for i := 0; i < 5000; i++ {
		n := rng.Intn(400)
		b := make([]byte, n)
		rng.Read(b)
		Unmarshal(b) //nolint:errcheck // errors are expected
	}
	// Bit-flipped valid messages.
	valid := NewMessage(Request, 7, hw(1))
	valid.SetU32Option(OptLeaseTime, 3600)
	wire := valid.Marshal()
	for i := 0; i < 5000; i++ {
		b := append([]byte(nil), wire...)
		for k := 0; k < 3; k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if m, err := Unmarshal(b); err == nil && m == nil {
			t.Fatal("nil message without error")
		}
	}
}

// TestHandleMalformedOptions: a message with a present but wrong-sized
// option must not crash the server state machine.
func TestHandleMalformedOptions(t *testing.T) {
	srv, _ := newTestServer(3600, true)
	req := NewMessage(Request, 1, hw(1))
	req.SetOption(OptRequestedIP, []byte{1, 2}) // wrong length
	rep, err := srv.Handle(req)
	if err != nil {
		t.Fatalf("Handle: %v", err)
	}
	if rep.Type() != NAK {
		t.Errorf("malformed requested IP got %v", rep.Type())
	}
	// No message type option at all.
	anon := &Message{}
	if _, err := srv.Handle(anon); err == nil {
		t.Error("typeless message accepted")
	}
}

// FuzzUnmarshal is the native fuzz target for the DHCPv4 codec, run with a
// bounded -fuzztime as a smoke gate in CI (scripts/verify.sh). The decoder
// parses attacker-controlled datagrams: it may reject input, but must never
// panic, and anything it accepts must survive a re-marshal round trip
// (decoding the marshalled bytes and marshalling again gives the same
// bytes). Decoding into a message that held another one must leave
// nothing of it: the same error as a fresh decode, or the same bytes from
// Append, which keeps whatever dst already held.
func FuzzUnmarshal(f *testing.F) {
	valid := NewMessage(Request, 7, hw(1))
	valid.SetU32Option(OptLeaseTime, 3600)
	valid.SetAddrOption(OptRequestedIP, netip.MustParseAddr("100.64.10.9"))
	valid.Hops, valid.GIAddr = 2, netip.MustParseAddr("198.51.100.1")
	seed := valid.Marshal()
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 1, 6, 0})
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
