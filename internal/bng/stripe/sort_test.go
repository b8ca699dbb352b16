package stripe

import (
	"cmp"
	"slices"
	"testing"
)

// sortOracle orders records with a comparison sort: the reference
// order SnapshotSorted's slot walk must match record for record.
func sortOracle(s []Session) []Session {
	out := slices.Clone(s)
	slices.SortFunc(out, func(a, b Session) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// fillTable stores one session per key, in the order given, into a
// table with the given group sizes. Each record has distinct payload
// fields, so a record moved without its key would be caught. It returns
// the table and the records it stored.
func fillTable(t testing.TB, shardBits int, keys []uint64, groupSizes ...int) (*Table, []Session) {
	t.Helper()
	tab, err := New(shardBits, groupSizes...)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Session, len(keys))
	for i, k := range keys {
		recs[i] = Session{
			Key: k, Pfx6Hi: Mix64(k), Start: int64(i), Expiry: int64(i) * 3600,
			Addr4: uint32(Mix64(k ^ 1)), Gen: uint32(i), Renews: uint32(i * 7),
			Pfx6Len: uint8(k), State: StateActive,
		}
		tab.Put(recs[i])
	}
	return tab, recs
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

// scrambled returns keys in an order unrelated to key order.
func scrambled(keys []uint64) []uint64 {
	out := slices.Clone(keys)
	slices.SortFunc(out, func(a, b uint64) int { return cmp.Compare(Mix64(a), Mix64(b)) })
	return out
}

// TestSnapshotSortedMatchesOracle: the snapshot's slot walk equals a
// comparison sort of the records stored, whatever order they were
// stored in and whether the table was sized or grew to hold them.
func TestSnapshotSortedMatchesOracle(t *testing.T) {
	var random []uint64
	for _, k := range denseKeys(5, 8000, 1) {
		if Mix64(k+99)%8 == 0 {
			random = append(random, k)
		}
	}
	highOnly := make([]uint64, 300)
	for i := range highOnly {
		// Keys differ only in the group half; every index is 7.
		highOnly[i] = uint64(i)<<32 | 7
	}
	for _, tc := range []struct {
		name       string
		shardBits  int
		keys       []uint64
		groupSizes []int
	}{
		{"empty", 4, nil, []int{10}},
		{"one record", 4, []uint64{1<<32 | 7}, nil},
		{"shard bits 0", 0, denseKeys(3, 2000, 3), []int{2000, 2000, 2000}},
		{"high bytes only", 6, scrambled(highOnly), nil},
		{"dense groups", 8, scrambled(denseKeys(5, 40_000, 2)), []int{40_000, 40_000, 40_000, 40_000, 40_000}},
		{"random keys", 8, scrambled(random), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, recs := fillTable(t, tc.shardBits, tc.keys, tc.groupSizes...)
			want := sortOracle(recs)
			got := tab.SnapshotSorted()
			if !slices.Equal(got, want) {
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
	tab, _ := fillTable(b, 8, keys, 25_000, 25_000, 25_000, 25_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tab.SnapshotSorted()) != len(keys) {
			b.Fatal("short snapshot")
		}
	}
}
