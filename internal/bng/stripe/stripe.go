// Package stripe is the BNG daemon's session store: one fixed-width
// session record per configured subscriber, in a dense slice per
// subscriber group. A record's key is group<<32 | index, and its slot
// is those two halves, so Get, Put and Delete are two index operations:
// nothing is hashed or looked up. The 2^k stripes only route: ShardOf,
// the top bits of a SplitMix64 finalizer over the key, names the engine
// that owns a key, so dense per-group key ranges scatter uniformly and
// no stripe becomes a hot spot.
//
// The table takes no locks. Goroutines may write it at once only while
// each touches the keys of stripes it alone owns, which are distinct
// slots, and nothing reads a slot while another goroutine writes it.
// The daemon's engines each write their own stripe's keys, and its
// round barrier reads the table only after every engine has stopped.
//
// The package sits on the daemon's per-event hot path (≥10⁶ virtual-time
// renewal events per second), so every function here is held to
// dynalint's zero-allocation rules: no fmt, no string conversions, no
// capturing closures, no interface boxing. Keys are plain integers —
// netip values are converted to their compact uint32//uint64 forms by
// the caller (internal/netutil keying) before they reach the table.
//
// Determinism contract: the table is a pure key-value store — it never
// allocates addresses, draws randomness, or reads clocks — so its state
// is exactly the set of records the caller wrote. SnapshotSorted lists
// records in key order and EncodeSnapshot has one canonical byte
// encoding, making "byte-identical across -workers counts and across
// kill/resume" a property the daemon can assert with a single byte
// comparison.
package stripe

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
)

// Session is one subscriber's live assignment state, sized and laid out
// for the canonical 48-byte snapshot record.
type Session struct {
	// Key is the dense subscriber key: group index in the high 32 bits,
	// subscriber index within the group in the low 32.
	Key uint64
	// Pfx6Hi is the network component (high 64 bits) of the delegated
	// IPv6 prefix; 0 with Pfx6Len 0 means no delegation (v4-only).
	Pfx6Hi uint64
	// Start and Expiry are virtual-time seconds.
	Start  int64
	Expiry int64
	// Addr4 is the framed IPv4 address (netutil.U32 form); 0 = none.
	Addr4 uint32
	// Gen counts address changes: it bumps whenever a renumbering or a
	// flap re-attach changed the subscriber's v4 address or v6 prefix.
	Gen uint32
	// Renews counts in-place lease renewals since the last attach.
	Renews uint32
	// Pfx6Len is the delegated prefix length (0 = none).
	Pfx6Len uint8
	// State is the session state (StateActive); a slot whose State is
	// 0 holds no session.
	State uint8
}

// StateActive is the only stored session state: a released session's
// slot is cleared.
const StateActive uint8 = 1

// EncodedSessionSize is the canonical record width.
const EncodedSessionSize = 48

// snapshotMagic heads every encoded snapshot.
const snapshotMagic = "BNGSNAP1"

// Snapshot framing errors.
var (
	ErrSnapshotMagic    = errors.New("stripe: bad snapshot magic")
	ErrSnapshotTruncate = errors.New("stripe: truncated snapshot")
	ErrSnapshotCRC      = errors.New("stripe: snapshot CRC mismatch")
	ErrSnapshotPadding  = errors.New("stripe: nonzero snapshot record padding")
)

// castagnoli is the CRC-32C table shared with the checkpoint layer's
// atomic writer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Mix64 is the SplitMix64 finalizer: the shard-selection hash. It is a
// bijection over uint64, so distinct keys never collide before the
// shard-index truncation.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Table is the session store: groups[g][i] is the slot of key
// g<<32 | i, and a slot whose State is 0 is absent. Memory follows the
// largest group and index stored, so keys must be dense. The stripe
// count is fixed at construction and independent of how many workers
// drive the table, so worker fan-out never changes which stripe owns a
// key.
type Table struct {
	shift  uint
	groups [][]Session
}

// MaxShardBits bounds the stripe width (2^14 shards).
const MaxShardBits = 14

// ErrShardBits rejects out-of-range stripe widths.
var ErrShardBits = errors.New("stripe: shard bits outside [0, 14]")

// New builds a table with 2^shardBits stripes and one group per entry
// of groupSizes, holding that many subscriber slots. Put grows a group
// past its size, so a table built without sizes fills as keys arrive.
func New(shardBits int, groupSizes ...int) (*Table, error) {
	if shardBits < 0 || shardBits > MaxShardBits {
		return nil, ErrShardBits
	}
	t := &Table{shift: 64 - uint(shardBits), groups: make([][]Session, len(groupSizes))}
	for g, n := range groupSizes {
		t.groups[g] = make([]Session, n)
	}
	return t, nil
}

// Shards returns the stripe count.
func (t *Table) Shards() int { return 1 << (64 - t.shift) }

// ShardOf returns the stripe index owning key.
func (t *Table) ShardOf(key uint64) int {
	if t.shift == 64 {
		return 0 // one shard; x>>64 is not a defined shift
	}
	return int(Mix64(key) >> t.shift)
}

// slot returns key's slot, or nil when the key lies outside every
// group.
func (t *Table) slot(key uint64) *Session {
	g, i := key>>32, key&0xFFFF_FFFF
	if g >= uint64(len(t.groups)) || i >= uint64(len(t.groups[g])) {
		return nil
	}
	return &t.groups[g][i]
}

// Put stores s under s.Key. A key past its group's size grows the
// group geometrically, which moves every slot of the group: only a
// table no other goroutine holds may grow, so a shared table is sized
// for every key it will see.
func (t *Table) Put(s Session) {
	p := t.slot(s.Key)
	if p == nil {
		p = t.grow(s.Key)
	}
	*p = s
}

// grow extends the table until key, which has no slot, has one, and
// returns it. A full group moves to twice the length the key needs, so
// a run of Puts past the sized range copies each record O(1) times.
func (t *Table) grow(key uint64) *Session {
	g, i := int(key>>32), int(key&0xFFFF_FFFF)
	if g >= len(t.groups) {
		t.groups = append(t.groups, make([][]Session, g+1-len(t.groups))...)
	}
	grp := t.groups[g]
	if i >= cap(grp) {
		grp = append(make([]Session, 0, 2*(i+1)), grp...)
	}
	t.groups[g] = grp[:i+1]
	return &t.groups[g][i]
}

// Get returns the session stored under key.
func (t *Table) Get(key uint64) (Session, bool) {
	if p := t.slot(key); p != nil && p.State != 0 {
		return *p, true
	}
	return Session{}, false
}

// Delete clears key's slot; it reports whether a session was present.
func (t *Table) Delete(key uint64) bool {
	p := t.slot(key)
	if p == nil || p.State == 0 {
		return false
	}
	*p = Session{}
	return true
}

// Len returns the session count: the slots whose State is set.
func (t *Table) Len() int {
	n := 0
	for _, grp := range t.groups {
		for i := range grp {
			if grp[i].State != 0 {
				n++
			}
		}
	}
	return n
}

// SnapshotSorted copies every session into a new slice in key order,
// group then subscriber. That is the order of the slots, so the copy
// is a walk and nothing is sorted.
func (t *Table) SnapshotSorted() []Session {
	out := make([]Session, 0, t.Len())
	for _, grp := range t.groups {
		for i := range grp {
			if grp[i].State != 0 {
				out = append(out, grp[i])
			}
		}
	}
	return out
}

// AppendSession appends the canonical 48-byte encoding of s to dst.
func AppendSession(dst []byte, s Session) []byte {
	var b [EncodedSessionSize]byte
	binary.LittleEndian.PutUint64(b[0:], s.Key)
	binary.LittleEndian.PutUint64(b[8:], s.Pfx6Hi)
	binary.LittleEndian.PutUint64(b[16:], uint64(s.Start))
	binary.LittleEndian.PutUint64(b[24:], uint64(s.Expiry))
	binary.LittleEndian.PutUint32(b[32:], s.Addr4)
	binary.LittleEndian.PutUint32(b[36:], s.Gen)
	binary.LittleEndian.PutUint32(b[40:], s.Renews)
	b[44] = s.Pfx6Len
	b[45] = s.State
	// b[46:48] is zero padding.
	return append(dst, b[:]...)
}

// decodeSession decodes one 48-byte record.
func decodeSession(b []byte) Session {
	return Session{
		Key:     binary.LittleEndian.Uint64(b[0:]),
		Pfx6Hi:  binary.LittleEndian.Uint64(b[8:]),
		Start:   int64(binary.LittleEndian.Uint64(b[16:])),
		Expiry:  int64(binary.LittleEndian.Uint64(b[24:])),
		Addr4:   binary.LittleEndian.Uint32(b[32:]),
		Gen:     binary.LittleEndian.Uint32(b[36:]),
		Renews:  binary.LittleEndian.Uint32(b[40:]),
		Pfx6Len: b[44],
		State:   b[45],
	}
}

// EncodeSnapshot writes the canonical snapshot encoding: magic, record
// count, the records in the given order, and a CRC-32C trailer over
// everything before it. Callers pass SnapshotSorted output for the
// canonical byte stream.
func EncodeSnapshot(w io.Writer, sessions []Session) error {
	crc := crc32.New(castagnoli)
	mw := io.MultiWriter(w, crc)
	var hdr [16]byte
	copy(hdr[:8], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(sessions)))
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	buf := make([]byte, 0, EncodedSessionSize)
	for i := range sessions {
		buf = AppendSession(buf[:0], sessions[i])
		if _, err := mw.Write(buf); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// snapshotHint caps the records DecodeSnapshot reserves before reading
// any from a reader that cannot say how many bytes it holds: a header's
// count is unverified until the records arrive, so a forged count costs
// at most this much memory (3 MiB).
const snapshotHint = 1 << 16

// DecodeSnapshot reads an EncodeSnapshot stream back into its record
// slice, verifying framing, the CRC trailer and every record's zero
// padding, so a stream decodes only if it is the canonical encoding of
// what it decodes to.
func DecodeSnapshot(r io.Reader) ([]Session, error) {
	crc := crc32.New(castagnoli)
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, ErrSnapshotTruncate
	}
	if string(hdr[:8]) != snapshotMagic {
		return nil, ErrSnapshotMagic
	}
	crc.Write(hdr[:])
	n := binary.LittleEndian.Uint64(hdr[8:])
	hint := min(n, snapshotHint)
	if b, ok := r.(interface{ Len() int }); ok {
		hint = min(n, uint64(b.Len())/EncodedSessionSize)
	}
	out := make([]Session, 0, hint)
	var (
		rec [EncodedSessionSize]byte
		pad byte
	)
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, ErrSnapshotTruncate
		}
		pad |= rec[46] | rec[47]
		crc.Write(rec[:])
		out = append(out, decodeSession(rec[:]))
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, ErrSnapshotTruncate
	}
	if binary.LittleEndian.Uint32(tail[:]) != crc.Sum32() {
		return nil, ErrSnapshotCRC
	}
	if pad != 0 {
		return nil, ErrSnapshotPadding
	}
	return out, nil
}

// FNV-1a/64 parameters of the table hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash folds the canonical encoding of the given records into one
// FNV-1a/64 digest: the cheap equality check the daemon's /stats
// endpoint exposes as table_hash.
func Hash(sessions []Session) uint64 {
	h := uint64(fnvOffset64)
	for i := range sessions {
		h = hashSession(h, &sessions[i])
	}
	return h
}

// Hash is Hash(t.SnapshotSorted()) without the copy: it folds the
// present slots in key order, straight from the table.
func (t *Table) Hash() uint64 {
	h := uint64(fnvOffset64)
	for _, grp := range t.groups {
		for i := range grp {
			if grp[i].State != 0 {
				h = hashSession(h, &grp[i])
			}
		}
	}
	return h
}

// hashSession folds s's 48-byte canonical encoding (AppendSession's
// bytes) into h, byte by byte from the fields.
func hashSession(h uint64, s *Session) uint64 {
	h = hashLE(h, s.Key, 8)
	h = hashLE(h, s.Pfx6Hi, 8)
	h = hashLE(h, uint64(s.Start), 8)
	h = hashLE(h, uint64(s.Expiry), 8)
	h = hashLE(h, uint64(s.Addr4), 4)
	h = hashLE(h, uint64(s.Gen), 4)
	h = hashLE(h, uint64(s.Renews), 4)
	h = hashLE(h, uint64(s.Pfx6Len)|uint64(s.State)<<8, 4) // two bytes and the zero padding
	return h
}

// hashLE folds the low n bytes of v, least significant first. A zero
// byte leaves h^b == h, so the run of zero bytes above v's highest set
// byte folds as one multiply by a power of the prime: most fields hold
// small numbers, and the FNV chain is the cut's longest task.
func hashLE(h, v uint64, n int) uint64 {
	used := (bits.Len64(v) + 7) >> 3
	for range used {
		h ^= v & 0xFF
		h *= fnvPrime64
		v >>= 8
	}
	if used < n {
		h *= fnvPow[n-used]
	}
	return h
}

// fnvPow[k] is fnvPrime64 to the power k: the fold of k zero bytes.
var fnvPow = func() (pow [9]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime64
	}
	return pow
}()
