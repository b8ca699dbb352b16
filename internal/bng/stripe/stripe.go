// Package stripe is the BNG daemon's lock-striped session store: a
// fixed-width session record keyed by a dense uint64 subscriber key,
// spread over 2^k independently locked shards. The stripe index is the
// top bits of a SplitMix64 finalizer over the key, so dense per-group
// key ranges scatter uniformly and no shard becomes a hot spot.
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
// is exactly the set of records the caller wrote. SnapshotSorted orders
// records by key and EncodeSnapshot has one canonical byte encoding,
// making "byte-identical across -workers counts and across kill/resume"
// a property the daemon can assert with a single byte comparison.
package stripe

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"sync"
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
	// State is the session state (StateActive; the zero value means
	// "not present" and is never stored).
	State uint8
}

// StateActive is the only stored session state: released sessions are
// deleted from the table.
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

// shard is one stripe: a mutex and its slice of the keyspace.
type shard struct {
	mu sync.Mutex
	m  map[uint64]Session
	// pad keeps neighboring shard mutexes off one cache line under
	// heavy cross-shard churn.
	_ [40]byte
}

// Table is the lock-striped session store. Shard count is fixed at
// construction and independent of how many workers drive it, so worker
// fan-out never changes which shard owns a key.
type Table struct {
	shift  uint
	shards []shard
}

// MaxShardBits bounds the stripe width (2^14 shards).
const MaxShardBits = 14

// ErrShardBits rejects out-of-range stripe widths.
var ErrShardBits = errors.New("stripe: shard bits outside [0, 14]")

// New builds a table with 2^shardBits stripes.
func New(shardBits int) (*Table, error) {
	if shardBits < 0 || shardBits > MaxShardBits {
		return nil, ErrShardBits
	}
	t := &Table{
		shift:  64 - uint(shardBits),
		shards: make([]shard, 1<<uint(shardBits)),
	}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]Session)
	}
	return t, nil
}

// Shards returns the stripe count.
func (t *Table) Shards() int { return len(t.shards) }

// ShardOf returns the stripe index owning key.
func (t *Table) ShardOf(key uint64) int {
	if t.shift == 64 {
		return 0 // one shard; x>>64 is not a defined shift
	}
	return int(Mix64(key) >> t.shift)
}

// Put stores s under s.Key, locking its shard.
func (t *Table) Put(s Session) {
	sh := &t.shards[t.ShardOf(s.Key)]
	sh.mu.Lock()
	sh.m[s.Key] = s
	sh.mu.Unlock()
}

// Get returns the session stored under key, locking its shard.
func (t *Table) Get(key uint64) (Session, bool) {
	sh := &t.shards[t.ShardOf(key)]
	sh.mu.Lock()
	s, ok := sh.m[key]
	sh.mu.Unlock()
	return s, ok
}

// Delete removes key, locking its shard; it reports whether a session
// was present.
func (t *Table) Delete(key uint64) bool {
	sh := &t.shards[t.ShardOf(key)]
	sh.mu.Lock()
	_, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	sh.mu.Unlock()
	return ok
}

// Len returns the total session count across all shards.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Borrowed is exclusive single-goroutine access to one stripe: the
// daemon's churn loop borrows each shard for a whole round and mutates
// it lock-free, while readers on other shards proceed.
type Borrowed struct {
	sh *shard
}

// Borrow locks stripe i and returns direct access to it. The caller
// must Release it; only keys owned by stripe i may be touched.
func (t *Table) Borrow(i int) Borrowed {
	sh := &t.shards[i]
	sh.mu.Lock()
	//lint:ignore lockscope lock handoff by design: Borrow transfers the stripe lock to the caller, who must Release it
	return Borrowed{sh: sh}
}

// Release unlocks the borrowed stripe.
func (b Borrowed) Release() { b.sh.mu.Unlock() }

// Get reads a session from the borrowed stripe.
func (b Borrowed) Get(key uint64) (Session, bool) {
	s, ok := b.sh.m[key]
	return s, ok
}

// Put writes a session into the borrowed stripe.
func (b Borrowed) Put(s Session) { b.sh.m[s.Key] = s }

// Delete removes a session from the borrowed stripe, reporting whether
// it was present.
func (b Borrowed) Delete(key uint64) bool {
	_, ok := b.sh.m[key]
	if ok {
		delete(b.sh.m, key)
	}
	return ok
}

// Len returns the borrowed stripe's session count.
func (b Borrowed) Len() int { return len(b.sh.m) }

// SnapshotSorted collects every session into a slice sorted by key —
// the canonical order group-then-subscriber, since keys are dense
// (group<<32 | index). Each shard is locked only while it is copied.
func (t *Table) SnapshotSorted() []Session {
	n := t.Len()
	out := make([]Session, 0, n)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.m {
			out = append(out, s)
		}
		sh.mu.Unlock()
	}
	radixSortByKey(out)
	return out
}

// radixSortByKey orders records by key in place, with no comparison
// sort: an MSD radix sort (American flag sort) that permutes each byte's
// buckets into place by swap cycles, then recurses into every bucket on
// the next lower byte. Bytes constant across every key are skipped, so
// dense group<<32|index keys cost about four passes however large the
// table, and the sort allocates nothing. Keys in a table are unique, so
// the result is the one key order any sort would give.
func radixSortByKey(s []Session) {
	var diff uint64
	for i := range s {
		diff |= s[i].Key ^ s[0].Key
	}
	radixSortByte(s, diff, 7)
}

// smallSortMax is the bucket size below which an insertion sort beats
// another radix pass's 256-entry tables.
const smallSortMax = 24

// radixSortByte sorts s, whose keys agree on every byte above b, by key
// bytes b down to 0, skipping those that diff marks constant.
func radixSortByte(s []Session, diff uint64, b int) {
	for b >= 0 && byte(diff>>(8*uint(b))) == 0 {
		b--
	}
	if b < 0 || len(s) < 2 {
		return
	}
	if len(s) <= smallSortMax {
		insertionSortByKey(s)
		return
	}
	shift := 8 * uint(b)
	var count, next [256]int
	for i := range s {
		count[byte(s[i].Key>>shift)]++
	}
	at := 0
	for d := range count {
		next[d] = at
		at += count[d]
	}
	// Walk the buckets: each misplaced record is swapped into the next
	// free slot of its own bucket until the slot under the cursor holds
	// a record that belongs there.
	end := 0
	for d := range count {
		end += count[d]
		for next[d] < end {
			r := s[next[d]]
			for rd := byte(r.Key >> shift); int(rd) != d; rd = byte(r.Key >> shift) {
				r, s[next[rd]] = s[next[rd]], r
				next[rd]++
			}
			s[next[d]] = r
			next[d]++
		}
	}
	start := 0
	for d := range count {
		radixSortByte(s[start:start+count[d]], diff, b-1)
		start += count[d]
	}
}

// insertionSortByKey orders a small run of records by key.
func insertionSortByKey(s []Session) {
	for i := 1; i < len(s); i++ {
		r := s[i]
		j := i
		for ; j > 0 && s[j-1].Key > r.Key; j-- {
			s[j] = s[j-1]
		}
		s[j] = r
	}
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

// DecodeSnapshot reads an EncodeSnapshot stream back into its record
// slice, verifying framing and the CRC trailer.
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
	if n > 1<<40 {
		return nil, ErrSnapshotTruncate
	}
	out := make([]Session, 0, n)
	var rec [EncodedSessionSize]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return nil, ErrSnapshotTruncate
		}
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
	return out, nil
}

// Hash folds the canonical encoding of the given records into one
// FNV-1a/64 digest: the cheap equality check the daemon's /stats
// endpoint exposes as table_hash.
func Hash(sessions []Session) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	buf := make([]byte, 0, EncodedSessionSize)
	for i := range sessions {
		buf = AppendSession(buf[:0], sessions[i])
		for _, c := range buf {
			h ^= uint64(c)
			h *= prime64
		}
	}
	return h
}
