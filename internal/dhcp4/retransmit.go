package dhcp4

// Jitter supplies the ±1 s randomization RFC 2131 §4.1 prescribes for
// retransmission delays. *math/rand.Rand and *faultnet.Stream both
// implement it; a nil Jitter yields the unjittered base schedule.
type Jitter interface {
	Float64() float64
}

// Retransmitter implements the RFC 2131 §4.1 retransmission strategy:
// delays double from 4 s up to the 64 s ceiling (4→8→16→32→64), each
// randomized by a uniform draw from ±1 s. After the 64 s wait expires
// without a reply, the client gives up — five transmissions in all,
// roughly 124 s of trying. Waits are reported in virtual milliseconds, the
// unit faultnet.Link.Exchange runs on.
type Retransmitter struct {
	j    Jitter
	base int64 // upcoming unjittered wait, ms
}

// retransCeilingMS is RFC 2131 §4.1's 64-second delay ceiling.
const retransCeilingMS = 64_000

// NewRetransmitter builds the machine; j may be nil for the exact base
// schedule.
func NewRetransmitter(j Jitter) *Retransmitter {
	return &Retransmitter{j: j, base: 4_000}
}

// Next returns the wait after the upcoming transmission and whether a
// further transmission may follow; ok=false marks the final timeout.
func (r *Retransmitter) Next() (waitMS int64, ok bool) {
	wait := r.base
	if r.j != nil {
		// Uniform over [-1000, +1000] ms, the RFC's ±1 s.
		wait += int64(r.j.Float64()*2001) - 1000
	}
	if wait < 0 {
		wait = 0
	}
	more := r.base < retransCeilingMS
	if more {
		r.base *= 2
	}
	return wait, more
}
