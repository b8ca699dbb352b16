package stream

import (
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dynamips/internal/cdn"
	"dynamips/internal/sketch"
)

// buildShardSketch folds one shard's complete view into an encoded
// partial: the degree, /24-churn, and /24-cardinality sketches from the
// per-/24 summaries (a /24 maps to exactly one shard, so its degree is
// final here), and the /64 activity and cardinality sketches from the
// episode-ordered records (the stream is K64-major after cmpEpisode, so
// one linear group walk counts each /64's rows). Durations are not
// folded here — episodes can only be cut after the global k-way merge —
// so the reduce barrier adds dur_fixed/dur_mobile into the merged set.
func buildShardSketch(recs []cdn.Association, sums []k24Sum) []byte {
	s := sketch.CDNAnalysis.New()
	deg := s.Quantile(sketch.Deg24)
	hot24 := s.TopK(sketch.Hot24)
	pfx24 := s.Card(sketch.Pfx24)
	for i := range sums {
		deg.Add(float64(sums[i].Uniq))
		hot24.Add(uint64(sums[i].K24), uint64(sums[i].Uniq))
		pfx24.Add(uint64(sums[i].K24))
	}
	hot64 := s.TopK(sketch.Hot64)
	pfx64 := s.Card(sketch.Pfx64)
	i := 0
	for i < len(recs) {
		k64 := recs[i].K64
		j := i + 1
		for ; j < len(recs) && recs[j].K64 == k64; j++ {
		}
		hot64.Add(k64, uint64(j-i))
		pfx64.Add(k64)
		i = j
	}
	return s.Encode()
}

// mergeShardSketches decodes every shard partial and merges them in
// shard-index order into one analysis set. Decoding validates each
// partial's frame again even though decShard already did: the merge is
// the last consumer before the bytes become queryable state.
func mergeShardSketches(shards []shardMeta) (*sketch.Set, error) {
	acc := sketch.CDNAnalysis.New()
	for i := range shards {
		part, err := sketch.DecodeSet(shards[i].Sketch)
		if err != nil {
			return nil, wrap("stream: shard sketch", err)
		}
		if err := acc.Merge(part); err != nil {
			return nil, wrap("stream: merging shard sketch", err)
		}
	}
	return acc, nil
}

// NewTailSet returns an empty sketch set with the spill-tail schema
// (sketch.CDNTail): raw-association row activity and cardinalities,
// all pure monoid folds, so a partially written spill just yields a
// partial prefix of the same state.
func NewTailSet() *sketch.Set { return sketch.CDNTail.New() }

// FoldTail folds one raw association into a tail set.
func FoldTail(s *sketch.Set, a cdn.Association) {
	s.TopK(sketch.Rows24).Add(uint64(a.K24), 1)
	s.TopK(sketch.Rows64).Add(a.K64, 1)
	s.Card(sketch.Pfx24).Add(uint64(a.K24))
	s.Card(sketch.Pfx64).Add(a.K64)
}

// TailSpillDir folds every record it can read from the association
// spill files under dir (the generate path's gen-*.bin and the analyze
// path's shard-*.bin; run-*.bin holds the same records re-sorted, so it
// is skipped to avoid double counting) into a fresh tail set. It is
// tolerant by design — 'dynamips watch' polls directories that a
// generator or analyzer is actively writing — so a torn final chunk
// ends that file's scan without error, and the records folded so far
// stay in the set. Files are visited in sorted name order, but the
// result does not depend on it: tail-set folds are commutative.
// Returns the set and the number of records folded.
func TailSpillDir(dir string) (*sketch.Set, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, wrap("stream: reading spill dir", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.Type().IsRegular() && strings.HasSuffix(name, ".bin") &&
			(strings.HasPrefix(name, "gen-") || strings.HasPrefix(name, "shard-")) {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	s := NewTailSet()
	var total int64
	for _, name := range names {
		total += tailSpill(filepath.Join(dir, name), s)
	}
	return s, total, nil
}

// tailSpill folds one spill file's readable prefix into s. Torn or
// corrupt chunks end the scan silently, and so does a file whose
// header is not yet written (the writer may still be appending or may
// have just created it); folding never fails mid-poll.
func tailSpill(path string, s *sketch.Set) int64 {
	f, r, err := openSpill(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var n int64
	for {
		a, ok, err := r.Next()
		if err != nil || !ok {
			return n
		}
		FoldTail(s, a)
		n++
	}
}
