// Package fixture exercises the determinism analyzer: wall-clock reads (even
// for a socket deadline) and global RNG draws are flagged, seeded RNGs pass.
package fixture

import (
	"math/rand"
	mrand2 "math/rand/v2"
	"net"
	"time"
)

func BadWallClock() int64 {
	return time.Now().Unix()
}

func BadGlobalRand() int {
	n := rand.Intn(10)
	n += int(mrand2.Int64N(5))
	rand.Shuffle(3, func(i, j int) {})
	return n
}

func BadDeadline(conn net.Conn) error {
	return conn.SetReadDeadline(time.Now().Add(2 * time.Second))
}

func GoodSeeded() int {
	r := rand.New(rand.NewSource(42))
	r2 := mrand2.New(mrand2.NewPCG(1, 2))
	return r.Intn(10) + int(r2.Int64N(5))
}

func Suppressed() int64 {
	//lint:ignore determinism wall clock feeds a log line, not simulation state
	return time.Now().Unix()
}
