package slaac_test

import (
	"fmt"

	"dynamips/internal/slaac"
)

// ExampleEUI64 derives the stable interface identifier a device forms
// from its MAC — and shows why it is trackable: the MAC's bytes sit in
// the IID around the 0xFFFE filler.
func ExampleEUI64() {
	mac := [6]byte{0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE}
	fmt.Printf("%016x\n", slaac.EUI64(mac))
	// Output: 365678fffe9abcde
}
