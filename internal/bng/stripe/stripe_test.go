package stripe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"testing"
)

func TestNewRejectsBadShardBits(t *testing.T) {
	for _, bits := range []int{-1, MaxShardBits + 1} {
		if _, err := New(bits); !errors.Is(err, ErrShardBits) {
			t.Errorf("New(%d): got %v, want ErrShardBits", bits, err)
		}
	}
}

func TestShardOfSingleShard(t *testing.T) {
	tab, err := New(0)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", tab.Shards())
	}
	for _, k := range []uint64{0, 1, 1 << 40, ^uint64(0)} {
		if got := tab.ShardOf(k); got != 0 {
			t.Errorf("ShardOf(%d) = %d, want 0", k, got)
		}
	}
}

func TestShardOfCoversAllShards(t *testing.T) {
	tab, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for k := uint64(0); k < 4096; k++ {
		i := tab.ShardOf(k)
		if i < 0 || i >= tab.Shards() {
			t.Fatalf("ShardOf(%d) = %d out of range", k, i)
		}
		seen[i] = true
	}
	if len(seen) != tab.Shards() {
		t.Errorf("dense keys hit %d/%d shards", len(seen), tab.Shards())
	}
}

func TestPutGetDeleteLen(t *testing.T) {
	tab, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	s := Session{Key: 42, Addr4: 0x0a000001, State: StateActive, Expiry: 3600}
	tab.Put(s)
	got, ok := tab.Get(42)
	if !ok || got != s {
		t.Fatalf("Get(42) = %+v, %v; want %+v, true", got, ok, s)
	}
	if _, ok := tab.Get(43); ok {
		t.Error("Get(43) found a session that was never stored")
	}
	if tab.Len() != 1 {
		t.Errorf("Len() = %d, want 1", tab.Len())
	}
	if !tab.Delete(42) {
		t.Error("Delete(42) = false, want true")
	}
	if tab.Delete(42) {
		t.Error("second Delete(42) = true, want false")
	}
	if tab.Len() != 0 {
		t.Errorf("Len() after delete = %d, want 0", tab.Len())
	}
}

// TestPutGrowsGroup: a Put past a group's sized range grows the group,
// or adds groups, and keeps every record stored before.
func TestPutGrowsGroup(t *testing.T) {
	tab, err := New(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{0, 3, 4, 1000, 1<<32 | 9, 3<<32 | 0}
	for i, k := range keys {
		tab.Put(Session{Key: k, Addr4: uint32(i + 1), State: StateActive})
	}
	for i, k := range keys {
		if got, ok := tab.Get(k); !ok || got.Addr4 != uint32(i+1) {
			t.Errorf("Get(%#x) = %+v, %v after growth", k, got, ok)
		}
	}
	if _, ok := tab.Get(999); ok {
		t.Error("growth filled a slot nothing was stored in")
	}
	if tab.Len() != len(keys) {
		t.Errorf("Len() = %d, want %d", tab.Len(), len(keys))
	}
}

// TestOutsideGroupsAbsent: a key past a group's slots, or in a group the
// table does not have, reads as absent and deletes nothing.
func TestOutsideGroupsAbsent(t *testing.T) {
	tab, err := New(3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 1<<32 | 2, 2 << 32, ^uint64(0)} {
		if _, ok := tab.Get(k); ok {
			t.Errorf("Get(%#x) found a session outside every group", k)
		}
		if tab.Delete(k) {
			t.Errorf("Delete(%#x) reported a session outside every group", k)
		}
	}
}

// TestZeroStateAbsent: a slot whose State is 0 holds no session, even
// when the rest of its record was written.
func TestZeroStateAbsent(t *testing.T) {
	tab, err := New(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	tab.Put(Session{Key: 1, Addr4: 0x0a000001, Expiry: 3600})
	if _, ok := tab.Get(1); ok {
		t.Error("Get returned a record whose State is 0")
	}
	if tab.Delete(1) {
		t.Error("Delete reported a record whose State is 0")
	}
	if n := tab.Len(); n != 0 {
		t.Errorf("Len() = %d, want 0", n)
	}
	if snap := tab.SnapshotSorted(); len(snap) != 0 {
		t.Errorf("SnapshotSorted listed %d records whose State is 0", len(snap))
	}
}

func TestSnapshotSortedOrder(t *testing.T) {
	tab, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	// Insert in a scrambled order; expect key-ascending output.
	keys := []uint64{900, 3, 1 << 33, 77, 0, 12, 1<<32 + 5}
	for _, k := range keys {
		tab.Put(Session{Key: k, State: StateActive})
	}
	snap := tab.SnapshotSorted()
	if len(snap) != len(keys) {
		t.Fatalf("snapshot has %d records, want %d", len(snap), len(keys))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatalf("snapshot not strictly ascending at %d: %d >= %d", i, snap[i-1].Key, snap[i].Key)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sessions := []Session{
		{Key: 1, Pfx6Hi: 0x20010db800000000, Start: 10, Expiry: 3610, Addr4: 0x0a000001, Gen: 2, Renews: 9, Pfx6Len: 56, State: StateActive},
		{Key: 1<<32 + 7, Start: -5, Expiry: 1 << 40, Addr4: 0xffffffff, State: StateActive},
		{},
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	wantLen := 16 + len(sessions)*EncodedSessionSize + 4
	if buf.Len() != wantLen {
		t.Fatalf("encoded length %d, want %d", buf.Len(), wantLen)
	}
	got, err := DecodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sessions) {
		t.Fatalf("decoded %d records, want %d", len(got), len(sessions))
	}
	for i := range sessions {
		if got[i] != sessions[i] {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], sessions[i])
		}
	}
}

func TestDecodeSnapshotErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, []Session{{Key: 1, State: StateActive}}); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(nil)); !errors.Is(err, ErrSnapshotTruncate) {
			t.Errorf("got %v, want ErrSnapshotTruncate", err)
		}
	})
	t.Run("magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] ^= 0xff
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotMagic) {
			t.Errorf("got %v, want ErrSnapshotMagic", err)
		}
	})
	t.Run("truncated-record", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(enc[:20])); !errors.Is(err, ErrSnapshotTruncate) {
			t.Errorf("got %v, want ErrSnapshotTruncate", err)
		}
	})
	t.Run("missing-trailer", func(t *testing.T) {
		if _, err := DecodeSnapshot(bytes.NewReader(enc[:len(enc)-4])); !errors.Is(err, ErrSnapshotTruncate) {
			t.Errorf("got %v, want ErrSnapshotTruncate", err)
		}
	})
	t.Run("crc", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[20] ^= 0xff
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotCRC) {
			t.Errorf("got %v, want ErrSnapshotCRC", err)
		}
	})
	// A forged count with no records behind it must fail as truncated
	// without first reserving memory for the records it claims.
	for _, n := range []uint64{1 << 39, 1<<40 - 1} {
		t.Run(fmt.Sprintf("forged-count-%d", n), func(t *testing.T) {
			hdr := binary.LittleEndian.AppendUint64([]byte(snapshotMagic), n)
			if _, err := DecodeSnapshot(bytes.NewReader(hdr)); !errors.Is(err, ErrSnapshotTruncate) {
				t.Errorf("got %v, want ErrSnapshotTruncate", err)
			}
		})
	}
	t.Run("padding", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[16+46] = 1
		binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], castagnoli))
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotPadding) {
			t.Errorf("got %v, want ErrSnapshotPadding", err)
		}
	})
	t.Run("absurd-count", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		for i := 8; i < 16; i++ {
			bad[i] = 0xff
		}
		if _, err := DecodeSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrSnapshotTruncate) {
			t.Errorf("got %v, want ErrSnapshotTruncate", err)
		}
	})
}

func TestHashDistinguishesStates(t *testing.T) {
	a := []Session{{Key: 1, Addr4: 10, State: StateActive}}
	b := []Session{{Key: 1, Addr4: 11, State: StateActive}}
	if Hash(a) == Hash(b) {
		t.Error("Hash collision between distinct single-record states")
	}
	if Hash(a) != Hash(append([]Session(nil), a...)) {
		t.Error("Hash not deterministic for equal input")
	}
	if Hash(nil) == Hash(a) {
		t.Error("Hash(nil) equals Hash(one record)")
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity over a dense range (a true bijection can't
	// collide; a buggy finalizer would show collisions fast).
	seen := make(map[uint64]uint64, 1<<16)
	for k := uint64(0); k < 1<<16; k++ {
		h := Mix64(k)
		if prev, ok := seen[h]; ok {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, k, h)
		}
		seen[h] = k
	}
}

// FuzzDecodeSnapshot: any input either fails to decode or is, up to
// where the decoder stopped reading, the canonical encoding of what it
// decoded to. Each input is also tried with the CRC trailer its count
// implies recomputed, so mutations reach the record checks rather than
// stopping at the checksum.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, recs := range [][]Session{
		nil,
		{{Key: 1, State: StateActive}},
		{
			{Key: 7, Pfx6Hi: 0x20010db800000000, Start: 10, Expiry: 3610, Addr4: 0x0a000001, Gen: 2, Renews: 9, Pfx6Len: 56, State: StateActive},
			{Key: 1<<32 | 3, Start: -5, Expiry: 1 << 40, Addr4: 0xffffffff, State: StateActive},
		},
	} {
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A record whose padding is not zero: once its CRC is repaired, a
	// decoder that skipped the padding would accept it, and the records
	// would re-encode to other bytes.
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, []Session{{Key: 1, State: StateActive}}); err != nil {
		f.Fatal(err)
	}
	padded := buf.Bytes()
	padded[16+47] = 0x80
	f.Add(padded)
	f.Fuzz(func(t *testing.T, data []byte) {
		decodesCanonical(t, data)
		if len(data) < 16 {
			return
		}
		n := binary.LittleEndian.Uint64(data[8:])
		if end := 16 + n*EncodedSessionSize; n < uint64(len(data)) && end+4 <= uint64(len(data)) {
			fixed := slices.Clone(data)
			binary.LittleEndian.PutUint32(fixed[end:], crc32.Checksum(fixed[:end], castagnoli))
			decodesCanonical(t, fixed)
		}
	})
}

// decodesCanonical fails t when data decodes but does not re-encode to
// the bytes the decoder consumed.
func decodesCanonical(t *testing.T, data []byte) {
	r := bytes.NewReader(data)
	recs, err := DecodeSnapshot(r)
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
		t.Fatalf("%d decoded records re-encode to %d bytes that differ from the %d consumed", len(recs), buf.Len(), len(consumed))
	}
}
