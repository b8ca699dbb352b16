package sketch

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// Card precision bounds: m = 2^p registers, one byte each.
const (
	// MinCardP is the smallest supported precision (16 registers).
	MinCardP = 4
	// MaxCardP is the largest supported precision (256 KiB of
	// registers) — far past the repo's accuracy needs.
	MaxCardP = 18
)

// Card is a seeded HyperLogLog cardinality estimator over uint64 keys
// (/64 prefixes, /24 keys), with the standard linear-counting
// correction in the small range. The register array is a max-monoid
// over the per-key hash observations: merging partials in any order or
// association yields identical registers, hence identical bytes and
// identical estimates. Hashing is seeded SplitMix64 — deterministic
// across runs, independent across seeds.
type Card struct {
	p    uint8
	seed uint64
	reg  []uint8
	// raised has one bit per 8-register word: the words Add raised
	// since MergeRaised last read this card.
	raised []uint64
}

// NewCard builds an estimator with 2^p registers hashed under seed. It
// panics if p is outside [MinCardP, MaxCardP].
func NewCard(p uint8, seed uint64) *Card {
	if p < MinCardP || p > MaxCardP {
		panic("sketch: card precision outside [4, 18]")
	}
	return &Card{p: p, seed: seed, reg: make([]uint8, 1<<p), raised: make([]uint64, max(1, 1<<p>>9))}
}

// P reports the precision (log2 of the register count).
func (c *Card) P() uint8 { return c.p }

// Seed reports the hash seed.
func (c *Card) Seed() uint64 { return c.seed }

// Kind reports KindCard.
func (c *Card) Kind() Kind { return KindCard }

// Add folds one key into the estimator, marking the register word it
// raises.
func (c *Card) Add(key uint64) {
	h := mix64(mix64(key) ^ c.seed)
	idx := h >> (64 - uint(c.p))
	w := h << c.p
	var r uint8
	if w == 0 {
		r = uint8(64-c.p) + 1
	} else {
		r = uint8(bits.LeadingZeros64(w)) + 1
	}
	if r > c.reg[idx] {
		c.reg[idx] = r
		c.mark(int(idx) >> 3)
	}
}

// mark records that register word w (registers 8w..8w+7) was raised.
//
//lint:hotpath every register an Add raises
func (c *Card) mark(w int) { c.raised[w>>6] |= 1 << (w & 63) }

// alphaM is the HyperLogLog bias-correction constant for m registers.
func alphaM(m float64) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	}
	return 0.7213 / (1 + 1.079/m)
}

// Estimate returns the current cardinality estimate: raw HLL with
// linear counting below 2.5m when empty registers remain. The walk
// over registers is index-ordered, so the estimate is a deterministic
// function of state.
func (c *Card) Estimate() float64 {
	m := float64(uint64(1) << c.p)
	var sum float64
	zeros := 0
	for _, r := range c.reg {
		sum += math.Ldexp(1, -int(r))
		if r == 0 {
			zeros++
		}
	}
	raw := alphaM(m) * m * m / sum
	if raw <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return raw
}

// RSE reports the theoretical relative standard error, 1.04/sqrt(m).
func (c *Card) RSE() float64 {
	return 1.04 / math.Sqrt(float64(uint64(1)<<c.p))
}

// Merge folds o into c by register-wise max. Both estimators must
// share precision and seed.
func (c *Card) Merge(o *Card) error {
	if c.p != o.p || c.seed != o.seed {
		return ErrMergeParam
	}
	dst := c.reg[:len(o.reg)]
	for i := 0; i+8 <= len(dst); i += 8 {
		a := binary.LittleEndian.Uint64(dst[i:])
		b := binary.LittleEndian.Uint64(o.reg[i:])
		binary.LittleEndian.PutUint64(dst[i:], maxRegs(a, b))
	}
	return nil
}

// MergeRaised folds into c only the register words o's Adds raised
// since the last MergeRaised from o, then clears o's marks. When c
// already holds o's registers as of that last call (it has taken o's
// raised words every time since NewCard built o, and only Add has
// changed o), c ends with the registers Merge would leave: register
// max is idempotent, and a word no Add raised holds what c took
// before. Merge and the codec fill registers without marking them.
// Both estimators must share precision and seed.
func (c *Card) MergeRaised(o *Card) error {
	if c.p != o.p || c.seed != o.seed {
		return ErrMergeParam
	}
	for i, m := range o.raised {
		for ; m != 0; m &= m - 1 {
			at := 8 * (i<<6 | bits.TrailingZeros64(m))
			a := binary.LittleEndian.Uint64(c.reg[at:])
			b := binary.LittleEndian.Uint64(o.reg[at:])
			binary.LittleEndian.PutUint64(c.reg[at:], maxRegs(a, b))
		}
		o.raised[i] = 0
	}
	return nil
}

// maxRegs is the register-wise max of two words of eight registers.
// Every register is at most 64-p+1 < 0x80 (Add and the codec both hold
// that), so (a|0x80)-b never borrows across bytes and keeps a byte's
// high bit exactly where a >= b. 2^p registers with p >= MinCardP is
// always a multiple of eight.
func maxRegs(a, b uint64) uint64 {
	const hi = 0x8080808080808080
	ge := (((a | hi) - b) & hi) >> 7 * 0xFF
	return a&ge | b&^ge
}

func (c *Card) mergeSketch(other Sketch) error {
	o, ok := other.(*Card)
	if !ok {
		return ErrMergeSchema
	}
	return c.Merge(o)
}
