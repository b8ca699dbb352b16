package radius

// Jitter randomizes retransmission delays (RFC 5080 §2.2.1 recommends
// jittered backoff to avoid synchronized retry storms). *math/rand.Rand
// and *faultnet.Stream both implement it; nil yields the base schedule.
type Jitter interface {
	Float64() float64
}

// Retransmitter paces Access-Request retransmissions: delays double from
// 3 s to 24 s (3→6→12→24, each jittered by ±500 ms), four transmissions
// in all — the BRAS-typical policy; RFC 2865 leaves timing to the
// implementation. Crucially, every retransmission reuses the same
// Identifier and Request Authenticator, which is what lets the server's
// duplicate detection recognize the retry.
type Retransmitter struct {
	j    Jitter
	base int64 // upcoming unjittered wait, ms
}

// clientCeilingMS is the 24-second delay ceiling of the retry policy.
const clientCeilingMS = 24_000

// NewRetransmitter builds the machine; j may be nil.
func NewRetransmitter(j Jitter) *Retransmitter {
	return &Retransmitter{j: j, base: 3_000}
}

// Next returns the wait after the upcoming transmission and whether a
// further transmission may follow; ok=false marks the final timeout.
func (r *Retransmitter) Next() (waitMS int64, ok bool) {
	wait := r.base
	if r.j != nil {
		wait += int64(r.j.Float64()*1001) - 500
	}
	if wait < 0 {
		wait = 0
	}
	more := r.base < clientCeilingMS
	if more {
		r.base *= 2
	}
	return wait, more
}
