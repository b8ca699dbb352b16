// Package stream is the sharded streaming CDN pipeline: generate and
// analyze paths that never materialize the full association list, sized
// for the paper's 32.7-billion-tuple dataset. Associations travel in a
// fixed-width binary chunk codec (18 bytes per record, CRC-32C per
// chunk) instead of CSV; the analyze path hash-partitions records by /24
// key into bounded shards, aggregates per shard, and k-way-merges
// per-shard sorted runs to recover the global episode order. Shards are
// checkpoint-journal units, so a half-finished run resumes from its
// journal. The in-memory path (cdn.Generate, cdn.BuildReport) stays as
// the oracle: for the same inputs this package produces byte-identical
// output at any worker count.
//
// The whole package is on dynalint's hot-path allocation budget
// (HotPackages): no fmt, no capturing closures, no per-record
// conversions.
package stream

import (
	"errors"
	"os"
	"path/filepath"

	"dynamips/internal/cdn"
	"dynamips/internal/checkpoint"
)

var (
	errNoInput      = errors.New("stream: no input path")
	errSpillChanged = errors.New("stream: spill file missing or resized since it was journaled")
)

// wrapErr contextualizes an error without fmt (hot-path rule); it
// supports errors.Is/As through Unwrap.
type wrapErr struct {
	msg string
	err error
}

func (e *wrapErr) Error() string { return e.msg + ": " + e.err.Error() }
func (e *wrapErr) Unwrap() error { return e.err }

func wrap(msg string, err error) error { return &wrapErr{msg: msg, err: err} }

// shardOf maps a /24 key to its shard: a SplitMix64 finalizer over the
// key, reduced modulo the shard count. The multiplicative mixing spreads
// the sequential /24 pools each operator carves across all shards, so no
// shard inherits a whole operator.
func shardOf(k24 uint32, shards int) int {
	x := uint64(k24) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(shards))
}

// ensureSpillDir resolves where spill and run files live: an explicit
// directory wins, then the checkpoint directory's spill/ subdirectory
// (spills must survive the process for a resume to validate them), then
// a temp directory the caller removes (temp reports that case).
func ensureSpillDir(explicit string, run *checkpoint.Run) (dir string, temp bool, err error) {
	switch {
	case explicit != "":
		return explicit, false, os.MkdirAll(explicit, 0o755)
	case run != nil:
		dir = filepath.Join(run.Dir(), "spill")
		return dir, false, os.MkdirAll(dir, 0o755)
	default:
		dir, err = os.MkdirTemp("", "dynamips-stream-")
		return dir, true, err
	}
}

// spillFile is an open spill or run file being written through the chunk
// codec. The codec already buffers a whole chunk and writes it in one
// call, so the file gets no second buffer.
type spillFile struct {
	f       *os.File
	cw      *Writer
	durable bool // fsync in finish: a journal will vouch for the file
}

// createSpill creates a spill or run file. durable is whether the unit
// writing it is journaled (a non-nil checkpoint): only then must the
// bytes reach the disk before the journal append that a resume trusts.
// Without a journal the same process reads the file back through the
// page cache, and nothing trusts it after a crash.
func createSpill(path string, durable bool) (*spillFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, wrap("stream: creating spill file", err)
	}
	cw, err := NewWriter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &spillFile{f: f, cw: cw, durable: durable}, nil
}

// syncSpill is the fsync of a durable spill file (a variable so tests can
// observe which files are synced).
var syncSpill = (*os.File).Sync

// finish flushes, syncs when durable, and closes the file, returning its
// final size. The size goes into the journaled unit meta: a resume
// re-validates it before trusting the file (validateSpill).
func (s *spillFile) finish() (int64, error) {
	if err := s.cw.Flush(); err != nil {
		s.f.Close()
		return 0, err
	}
	if s.durable {
		if err := syncSpill(s.f); err != nil {
			s.f.Close()
			return 0, err
		}
	}
	info, err := s.f.Stat()
	if err != nil {
		s.f.Close()
		return 0, err
	}
	if err := s.f.Close(); err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// abort closes the file without flushing; a recompute will truncate it.
func (s *spillFile) abort() { s.f.Close() }

// openSpill opens a spill file for chunk-codec reading. The codec reads
// a chunk's payload in one call, so the file gets no second buffer. The
// caller owns closing the returned file.
func openSpill(path string) (*os.File, *Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, wrap("stream: opening spill file", err)
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, r, nil
}

// validateSpill checks a journaled spill file is still present at its
// recorded size. A mismatch makes the journal entry undecodable, which
// checkpoint.Stage answers by recomputing the unit.
func validateSpill(path string, size int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if info.Size() != size {
		return errSpillChanged
	}
	return nil
}

// readSpill loads a whole spill file (one shard — the bounded unit of
// the analyze path) into memory, preallocated from the journaled record
// count.
func readSpill(path string, count int64) ([]cdn.Association, error) {
	f, r, err := openSpill(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make([]cdn.Association, 0, int(count))
	for {
		a, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, a)
	}
}

// unitBounds buckets per-unit record counts for the throughput
// histograms (decades from 10² to 10⁸).
var unitBounds = []int64{100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8}
