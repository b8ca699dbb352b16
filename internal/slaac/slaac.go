// Package slaac implements the IPv6 host-addressing mechanisms the paper
// describes in §2.1: hosts autonomously form the 64-bit interface
// identifier under stateless address autoconfiguration — historically the
// stable EUI-64 form derived from the MAC (RFC 4862 [56]), today often
// RFC 4941 temporary "privacy addresses" ([32]) that rotate over time.
// Which form a device uses decides whether it is trackable across
// renumbering (§2.3, §6).
package slaac

import (
	"crypto/sha256"
	"encoding/binary"
)

// EUI64 derives the modified EUI-64 interface identifier from a 48-bit
// MAC: the universal/local bit is inverted and 0xFFFE is inserted between
// the OUI and the NIC-specific bytes (RFC 4291 appendix A).
func EUI64(mac [6]byte) uint64 {
	var b [8]byte
	copy(b[:3], mac[:3])
	b[0] ^= 0x02 // flip U/L
	b[3], b[4] = 0xFF, 0xFE
	copy(b[5:], mac[3:])
	return binary.BigEndian.Uint64(b[:])
}

// Temporary derives an RFC 4941 temporary IID for the given rotation
// index: a fresh pseudorandom identifier per interval, chained from the
// previous state exactly as §3.2.1 of the RFC sketches.
func Temporary(secret []byte, rotation uint64) uint64 {
	h := sha256.New()
	var r [8]byte
	binary.BigEndian.PutUint64(r[:], rotation)
	h.Write(secret)
	h.Write(r[:])
	sum := h.Sum(nil)
	return binary.BigEndian.Uint64(sum[:8]) &^ (1 << 57)
}
