package sketch

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
)

// topOracle is the full-sort top-j: every entry in key order, sorted by
// the total order, then truncated.
func topOracle(t *TopK, j int) []Entry {
	var es []Entry
	for _, k := range t.sortedKeys() {
		es = append(es, Entry{Key: k, Count: t.counts[k]})
	}
	slices.SortFunc(es, compareEntries)
	return es[:min(max(j, 0), len(es))]
}

// tiedTopK returns a lossless merge of enough partials to hold keys
// tracked keys whose counts collide heavily, so the key tie-break
// decides most of the order.
func tiedTopK(keys int) *TopK {
	acc := NewTopK(keys)
	for i := 0; i < keys; i++ {
		acc.Add(mix64(uint64(i))%(1<<40), 1+mix64(uint64(i)^0x55)%7)
	}
	if len(acc.counts) != keys {
		panic(fmt.Sprintf("tiedTopK: %d keys tracked, want %d", len(acc.counts), keys))
	}
	return acc
}

// TestTopKTopMatchesSortOracle: selection by insertion list and by
// sort both equal the full-sort oracle, ties included.
func TestTopKTopMatchesSortOracle(t *testing.T) {
	for _, keys := range []int{1, 40, topInsertMax + 1, 3000} {
		tk := tiedTopK(keys)
		js := []int{0, 1, 10, topInsertMax, topInsertMax + 1, keys - 1, keys, keys + 5}
		for _, j := range js {
			got, want := tk.Top(j), topOracle(tk, j)
			if !slices.Equal(got, want) {
				t.Fatalf("keys=%d j=%d: Top = %v, oracle %v", keys, j, got, want)
			}
		}
	}
	if got := NewTopK(4).Top(10); len(got) != 0 {
		t.Errorf("empty summary: Top(10) = %v", got)
	}
}

// oracleMerge adds o's counts in ascending key order: the reference
// the map-order TopK.Merge must match.
func oracleMerge(t, o *TopK) {
	t.n += o.n
	t.slack += o.slack
	for _, k := range o.sortedKeys() {
		t.counts[k] += o.counts[k]
	}
}

// mergedPartialsDigest is the SHA-256 of the canonical encoding of 16
// merged partials of buildPartialsK(0x5EED, 16, 60000, 1024), recorded
// with merges that walked keys in sorted order.
const mergedPartialsDigest = "e9aa80b3fb780eb258aa54b820191d50dac18655fd2f2432ae5df535721c05f8"

// TestMergeEncodingUnchanged: merging with unsorted loops encodes to the
// same bytes as the sorted merge, and to the digest recorded with it.
func TestMergeEncodingUnchanged(t *testing.T) {
	parts := buildPartialsK(0x5EED, 16, 60000, 1024)
	acc := buildSetK(1024)
	ref := buildSetK(1024)
	for _, p := range parts {
		if err := acc.Merge(p); err != nil {
			t.Fatal(err)
		}
		if err := ref.Quantile("duration").Merge(p.Quantile("duration")); err != nil {
			t.Fatal(err)
		}
		oracleMerge(ref.TopK("churn24"), p.TopK("churn24"))
		if err := ref.Card("pfx64").Merge(p.Card("pfx64")); err != nil {
			t.Fatal(err)
		}
	}
	got := acc.Encode()
	if want := ref.Encode(); !slices.Equal(got, want) {
		t.Fatal("unsorted merge encodes differently from the sorted merge")
	}
	sum := sha256.Sum256(got)
	if d := hex.EncodeToString(sum[:]); d != mergedPartialsDigest {
		t.Errorf("merged encoding digest %s, want %s", d, mergedPartialsDigest)
	}
}

// BenchmarkTopKTop is the round barrier's heavy-hitter stage: the /sketch
// view's top 10 of a merged summary holding 58k keys, the size the
// assignment plane's churn24 reaches after a virtual day.
func BenchmarkTopKTop(b *testing.B) {
	tk := tiedTopK(58_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tk.Top(10)) != 10 {
			b.Fatal("short top")
		}
	}
}
