package stripe

import (
	"cmp"
	"slices"
	"testing"
)

// sortOracle orders records with a comparison sort: the reference
// SnapshotSorted's radix sort must match record for record.
func sortOracle(s []Session) []Session {
	out := slices.Clone(s)
	slices.SortFunc(out, func(a, b Session) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// fillTable stores one session per key, each with distinct payload
// fields, so a record moved without its key would be caught.
func fillTable(t testing.TB, shardBits int, keys []uint64) *Table {
	t.Helper()
	tab, err := New(shardBits)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		tab.Put(Session{
			Key: k, Pfx6Hi: Mix64(k), Start: int64(i), Expiry: int64(i) * 3600,
			Addr4: uint32(Mix64(k ^ 1)), Gen: uint32(i), Renews: uint32(i * 7),
			Pfx6Len: uint8(k), State: StateActive,
		})
	}
	return tab
}

// denseKeys returns the live keys of a table of groups×perGroup
// subscribers in which every keep-th subscriber is online.
func denseKeys(groups, perGroup, keep int) []uint64 {
	var keys []uint64
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i += keep {
			keys = append(keys, uint64(g)<<32|uint64(i))
		}
	}
	return keys
}

// TestSnapshotSortedMatchesOracle: the radix-sorted snapshot equals a
// comparison sort of the same records, whichever key bytes vary.
func TestSnapshotSortedMatchesOracle(t *testing.T) {
	random := make([]uint64, 5000)
	for i := range random {
		random[i] = Mix64(uint64(i) + 99)
	}
	highOnly := make([]uint64, 300)
	for i := range highOnly {
		// Keys differ only in bytes 5..7; bytes 0..4 are one constant.
		highOnly[i] = uint64(i)<<40 | 0xAB_CDEF_1234
	}
	for _, tc := range []struct {
		name      string
		shardBits int
		keys      []uint64
	}{
		{"empty", 4, nil},
		{"one record", 4, []uint64{1<<32 | 7}},
		{"shard bits 0", 0, denseKeys(3, 2000, 3)},
		{"high bytes only", 6, highOnly},
		{"dense groups", 8, denseKeys(5, 40_000, 2)},
		{"random keys", 8, random},
		{"all bytes vary", 3, []uint64{^uint64(0), 0, 1 << 63, 0x0102030405060708, 0xFF, 1 << 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := fillTable(t, tc.shardBits, tc.keys)
			var all []Session
			for i := range tab.shards {
				for _, s := range tab.shards[i].m {
					all = append(all, s)
				}
			}
			want := sortOracle(all)
			got := tab.SnapshotSorted()
			if len(got) != len(tc.keys) || !slices.Equal(got, want) {
				t.Fatalf("SnapshotSorted differs from the comparison-sort oracle (%d vs %d records)", len(got), len(want))
			}
			if Hash(got) != Hash(want) {
				t.Fatal("table hash differs from the oracle's")
			}
		})
	}
}

// BenchmarkSnapshotSorted is the round barrier's table stage at
// serve-bng's default shape: 100k subscribers over 256 stripes with
// about 98% of them online.
func BenchmarkSnapshotSorted(b *testing.B) {
	var keys []uint64
	for _, k := range denseKeys(4, 25_000, 1) {
		if Mix64(k)%50 != 0 {
			keys = append(keys, k)
		}
	}
	tab := fillTable(b, 8, keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tab.SnapshotSorted()) != len(keys) {
			b.Fatal("short snapshot")
		}
	}
}
