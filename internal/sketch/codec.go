package sketch

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/bits"
)

// setMagic heads every encoded sketch set.
const setMagic = "DSKSET01"

// maxTopK bounds a TopK capacity so the codec's arithmetic invariants
// stay overflow-checkable; 2^20 tracked keys is far past any summary.
const maxTopK = 1 << 20

// Codec errors. Decode is strict: it accepts exactly the canonical
// encodings Encode produces, so encode(decode(b)) == b for every
// accepted b and corrupted or non-canonical bytes are rejected rather
// than silently renormalized.
var (
	ErrCodecMagic    = errors.New("sketch: bad set magic")
	ErrCodecTruncate = errors.New("sketch: truncated set encoding")
	ErrCodecCRC      = errors.New("sketch: set CRC mismatch")
	ErrCodecOrder    = errors.New("sketch: set encoding not canonical")
	ErrCodecValue    = errors.New("sketch: set encoding value out of range")
)

// castagnoli is the CRC-32C polynomial table, matching the checkpoint
// writer and the stripe snapshot codec.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// setMagicBytes is the magic as an array for allocation-free compares.
var setMagicBytes = [8]byte{'D', 'S', 'K', 'S', 'E', 'T', '0', '1'}

func le32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func le64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// Encode returns the canonical CRC-framed encoding of the set:
//
//	magic "DSKSET01" · u32 item count ·
//	per item (names strictly ascending):
//	  u8 name length · name · u8 kind · u32 body length · body ·
//	u32 CRC-32C over everything above
//
// All integers are little-endian. Because every sketch body is emitted
// in sorted key order from monoid state, two sets built from the same
// input multiset encode to identical bytes.
func (s *Set) Encode() []byte { return s.AppendBinary(nil) }

// AppendBinary appends the canonical encoding to dst and returns the
// extended slice. The CRC covers only the bytes this call appends.
func (s *Set) AppendBinary(dst []byte) []byte {
	base := len(dst)
	dst = append(dst, setMagic...)
	dst = le32(dst, uint32(len(s.items)))
	for i := range s.items {
		it := &s.items[i]
		dst = append(dst, byte(len(it.name)))
		dst = append(dst, it.name...)
		dst = append(dst, byte(it.sk.Kind()))
		lenAt := len(dst)
		dst = le32(dst, 0)
		dst = it.sk.appendBody(dst)
		binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	}
	return le32(dst, crc32.Checksum(dst[base:], castagnoli))
}

// appendBody emits alpha bits, the zero-bucket count, and the
// populated buckets in ascending index order.
func (q *Quantile) appendBody(dst []byte) []byte {
	dst = le64(dst, math.Float64bits(q.alpha))
	dst = le64(dst, q.zeros)
	idx := q.sortedIdx()
	dst = le32(dst, uint32(len(idx)))
	for _, i := range idx {
		dst = le32(dst, uint32(i))
		dst = le64(dst, q.counts[i])
	}
	return dst
}

// appendBody emits capacity, totals, and the tracked keys ascending.
func (t *TopK) appendBody(dst []byte) []byte {
	dst = le32(dst, uint32(t.k))
	dst = le64(dst, t.n)
	dst = le64(dst, t.slack)
	keys := t.sortedKeys()
	dst = le32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = le64(dst, k)
		dst = le64(dst, t.counts[k])
	}
	return dst
}

// appendBody emits what TopK's does: the entries are already in key
// order.
func (s *SortedTopK) appendBody(dst []byte) []byte {
	dst = le32(dst, uint32(s.k))
	dst = le64(dst, s.n)
	dst = le64(dst, s.slack)
	dst = le32(dst, uint32(len(s.entries)))
	for _, e := range s.entries {
		dst = le64(dst, e.Key)
		dst = le64(dst, e.Count)
	}
	return dst
}

// appendBody emits precision, seed, and the raw register array.
func (c *Card) appendBody(dst []byte) []byte {
	dst = append(dst, c.p)
	dst = le64(dst, c.seed)
	return append(dst, c.reg...)
}

// rd is a bounds-checked little-endian cursor over an encoded set.
type rd struct {
	b   []byte
	off int
}

func (r *rd) rem() int { return len(r.b) - r.off }

func (r *rd) u8() (byte, bool) {
	if r.rem() < 1 {
		return 0, false
	}
	v := r.b[r.off]
	r.off++
	return v, true
}

func (r *rd) u32() (uint32, bool) {
	if r.rem() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, true
}

func (r *rd) u64() (uint64, bool) {
	if r.rem() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, true
}

func (r *rd) bytes(n int) ([]byte, bool) {
	if n < 0 || r.rem() < n {
		return nil, false
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, true
}

// addU64 is overflow-checked addition.
func addU64(a, b uint64) (uint64, bool) {
	s, carry := bits.Add64(a, b, 0)
	return s, carry == 0
}

// DecodeSet parses a canonical set encoding, validating the magic, the
// CRC trailer, strict name and key ordering, parameter ranges, and the
// per-sketch state invariants.
func DecodeSet(data []byte) (*Set, error) {
	if len(data) < len(setMagic)+4+4 {
		return nil, ErrCodecTruncate
	}
	if [8]byte(data[:8]) != setMagicBytes {
		return nil, ErrCodecMagic
	}
	body := data[: len(data)-4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, ErrCodecCRC
	}
	r := &rd{b: body, off: len(setMagic)}
	count, _ := r.u32()
	s := NewSet()
	prev := ""
	for i := uint32(0); i < count; i++ {
		nl, ok := r.u8()
		if !ok {
			return nil, ErrCodecTruncate
		}
		if nl == 0 {
			return nil, ErrCodecValue
		}
		nameBytes, ok := r.bytes(int(nl))
		if !ok {
			return nil, ErrCodecTruncate
		}
		//lint:ignore hotalloc decode runs once per checkpoint/snapshot load, not per record
		name := string(nameBytes)
		if i > 0 && name <= prev {
			return nil, ErrCodecOrder
		}
		prev = name
		kind, ok := r.u8()
		if !ok {
			return nil, ErrCodecTruncate
		}
		blen, ok := r.u32()
		if !ok {
			return nil, ErrCodecTruncate
		}
		bodyBytes, ok := r.bytes(int(blen))
		if !ok {
			return nil, ErrCodecTruncate
		}
		var sk Sketch
		switch Kind(kind) {
		case KindQuantile:
			q, err := decodeQuantileBody(bodyBytes)
			if err != nil {
				return nil, err
			}
			sk = q
		case KindTopK:
			t, err := decodeTopKBody(bodyBytes)
			if err != nil {
				return nil, err
			}
			sk = t
		case KindCard:
			c, err := decodeCardBody(bodyBytes)
			if err != nil {
				return nil, err
			}
			sk = c
		default:
			return nil, ErrCodecValue
		}
		if err := s.Put(name, sk); err != nil {
			return nil, ErrCodecOrder
		}
	}
	if r.rem() != 0 {
		return nil, ErrCodecTruncate
	}
	return s, nil
}

func decodeQuantileBody(b []byte) (*Quantile, error) {
	r := &rd{b: b}
	abits, ok1 := r.u64()
	zeros, ok2 := r.u64()
	nb, ok3 := r.u32()
	if !ok1 || !ok2 || !ok3 {
		return nil, ErrCodecTruncate
	}
	alpha := math.Float64frombits(abits)
	if !(alpha > 0 && alpha < 0.5) {
		return nil, ErrCodecValue
	}
	if r.rem() != int(nb)*12 {
		return nil, ErrCodecTruncate
	}
	q := NewQuantile(alpha)
	q.zeros = zeros
	q.n = zeros
	prev := int32(0)
	for i := uint32(0); i < nb; i++ {
		idxU, _ := r.u32()
		cnt, _ := r.u64()
		idx := int32(idxU)
		if idx < 1 || idx <= prev || cnt == 0 {
			return nil, ErrCodecValue
		}
		prev = idx
		var ok bool
		if q.n, ok = addU64(q.n, cnt); !ok {
			return nil, ErrCodecValue
		}
		q.counts[idx] = cnt
	}
	return q, nil
}

func decodeTopKBody(b []byte) (*TopK, error) {
	r := &rd{b: b}
	k, ok1 := r.u32()
	n, ok2 := r.u64()
	slack, ok3 := r.u64()
	ne, ok4 := r.u32()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return nil, ErrCodecTruncate
	}
	if k < 1 || k > maxTopK {
		return nil, ErrCodecValue
	}
	if r.rem() != int(ne)*16 {
		return nil, ErrCodecTruncate
	}
	t := NewTopK(int(k))
	t.n = n
	t.slack = slack
	var sum uint64
	var prev uint64
	for i := uint32(0); i < ne; i++ {
		key, _ := r.u64()
		cnt, _ := r.u64()
		if cnt == 0 || (i > 0 && key <= prev) {
			return nil, ErrCodecValue
		}
		prev = key
		var ok bool
		if sum, ok = addU64(sum, cnt); !ok {
			return nil, ErrCodecValue
		}
		t.counts[key] = cnt
	}
	// Misra-Gries invariant, preserved by Add and by the lossless
	// merge: every decrement round removes at least (k+1)·δ of
	// tracked weight, so tracked + (k+1)·slack never exceeds the
	// total folded weight.
	hi, lo := bits.Mul64(uint64(k)+1, slack)
	decremented, ok := addU64(sum, lo)
	if hi != 0 || !ok || decremented > n {
		return nil, ErrCodecValue
	}
	return t, nil
}

func decodeCardBody(b []byte) (*Card, error) {
	r := &rd{b: b}
	p, ok1 := r.u8()
	seed, ok2 := r.u64()
	if !ok1 || !ok2 {
		return nil, ErrCodecTruncate
	}
	if p < MinCardP || p > MaxCardP {
		return nil, ErrCodecValue
	}
	reg, ok := r.bytes(1 << p)
	if !ok || r.rem() != 0 {
		return nil, ErrCodecTruncate
	}
	maxRho := uint8(64-p) + 1
	c := NewCard(p, seed)
	for i, v := range reg {
		if v > maxRho {
			return nil, ErrCodecValue
		}
		c.reg[i] = v
	}
	return c, nil
}
