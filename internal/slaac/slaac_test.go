package slaac

import (
	"testing"
	"testing/quick"
)

func TestEUI64KnownVector(t *testing.T) {
	// RFC 4291 appendix A example: MAC 00:00:5E:10:00:52:13 style —
	// using 34:56:78:9A:BC:DE: EUI-64 = 3656:78FF:FE9A:BCDE with the
	// U/L bit flipped.
	mac := [6]byte{0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE}
	got := EUI64(mac)
	if got != 0x365678FFFE9ABCDE {
		t.Fatalf("EUI64 = %016x, want 365678fffe9abcde", got)
	}
}

// TestEUI64RoundTripProperty: every EUI-64 IID carries the 0xFFFE filler
// and gives its MAC back — why stable EUI-64 addressing is trackable.
func TestEUI64RoundTripProperty(t *testing.T) {
	f := func(mac [6]byte) bool {
		iid := EUI64(mac)
		back := [6]byte{
			byte(iid>>56) ^ 0x02, byte(iid >> 48), byte(iid >> 40),
			byte(iid >> 16), byte(iid >> 8), byte(iid),
		}
		return back == mac && (iid>>24)&0xFFFF == 0xFFFE
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTemporaryRotates(t *testing.T) {
	secret := []byte("s")
	seen := map[uint64]bool{}
	for r := uint64(0); r < 50; r++ {
		iid := Temporary(secret, r)
		if seen[iid] {
			t.Fatalf("temporary IID repeated at rotation %d", r)
		}
		seen[iid] = true
	}
	if Temporary(secret, 3) != Temporary(secret, 3) {
		t.Error("temporary IID not deterministic per rotation")
	}
}
