package stripe

import (
	"bytes"
	"flag"
	"testing"

	"dynamips/internal/faultnet"
	"dynamips/internal/parallel"
)

var propWorkers = flag.Int("workers", 0, "if >0, run the stripe property test only at this worker count")

// op is one step of the seeded churn stream: attach (put a fresh
// session), renew (bump Renews+Expiry in place), or release (delete).
type op struct {
	key  uint64
	kind uint8 // 0 attach, 1 renew, 2 release
	arg  uint32
}

const (
	opAttach uint8 = iota
	opRenew
	opRelease
)

// genOps draws a deterministic op stream over a bounded key universe.
func genOps(seed uint64, n int, universe uint64) []op {
	rng := faultnet.NewStream(seed, 0)
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{
			key:  rng.Uint64() % universe,
			kind: uint8(rng.Uint64() % 3),
			arg:  uint32(rng.Uint64()),
		}
	}
	return ops
}

// applyOp mutates one key's state the same way regardless of the
// backing store, expressed against get/put/delete callbacks.
func applyOp(o op, at int64, get func(uint64) (Session, bool), put func(Session), del func(uint64) bool) {
	switch o.kind {
	case opAttach:
		put(Session{
			Key:    o.key,
			Addr4:  o.arg,
			Start:  at,
			Expiry: at + 3600,
			State:  StateActive,
		})
	case opRenew:
		if s, ok := get(o.key); ok {
			s.Renews++
			s.Expiry = at + 3600
			put(s)
		}
	case opRelease:
		del(o.key)
	}
}

// oracleState applies the full op stream, in order, to one plain map:
// the naive single-threaded reference the striped table must match.
func oracleState(ops []op) []Session {
	m := make(map[uint64]Session)
	for i, o := range ops {
		applyOp(o, int64(i),
			func(k uint64) (Session, bool) { s, ok := m[k]; return s, ok },
			func(s Session) { m[s.Key] = s },
			func(k uint64) bool { _, ok := m[k]; delete(m, k); return ok },
		)
	}
	out := make([]Session, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	return sortOracle(out)
}

// stripedState partitions the op stream by owning shard (preserving
// each shard's relative op order), applies shards concurrently with
// the given worker count, and snapshots.
func stripedState(t *testing.T, ops []op, shardBits, workers int) []Session {
	t.Helper()
	tab, err := New(shardBits)
	if err != nil {
		t.Fatal(err)
	}
	type idxOp struct {
		op op
		at int64
	}
	perShard := make([][]idxOp, tab.Shards())
	for i, o := range ops {
		sh := tab.ShardOf(o.key)
		perShard[sh] = append(perShard[sh], idxOp{op: o, at: int64(i)})
	}
	_, err = parallel.MapErr(tab.Shards(), workers, func(sh int) (struct{}, error) {
		b := tab.Borrow(sh)
		defer b.Release()
		for _, io := range perShard[sh] {
			applyOp(io.op, io.at, b.Get, b.Put, b.Delete)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab.SnapshotSorted()
}

// TestStripedTableMatchesOracle is the ISSUE 8 property test: the
// lock-striped table, driven concurrently at -workers ∈ {1,4,16}, must
// produce a byte-identical snapshot to the naive single-map oracle fed
// the same seeded attach/renew/release stream. Ops on different keys
// commute and ops on one key stay shard-ordered, so any divergence
// means the striping itself (shard routing, borrow discipline, or
// snapshot canonicalization) is broken.
func TestStripedTableMatchesOracle(t *testing.T) {
	workerCounts := []int{1, 4, 16}
	if *propWorkers > 0 {
		workerCounts = []int{*propWorkers}
	}
	seeds := []uint64{1, 42, 0xD1CE}
	for _, seed := range seeds {
		ops := genOps(seed, 20000, 4096)
		want := oracleState(ops)
		var wantBuf bytes.Buffer
		if err := EncodeSnapshot(&wantBuf, want); err != nil {
			t.Fatal(err)
		}
		for _, shardBits := range []int{0, 4, 8} {
			for _, workers := range workerCounts {
				got := stripedState(t, ops, shardBits, workers)
				var gotBuf bytes.Buffer
				if err := EncodeSnapshot(&gotBuf, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
					t.Errorf("seed=%#x shardBits=%d workers=%d: striped snapshot differs from oracle (%d vs %d records)",
						seed, shardBits, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestStripedTableConcurrentMixed hammers the locked Put/Get/Delete
// API (not Borrow) from many goroutines and then checks the table
// matches an oracle that saw the same per-key final op. Per-key op
// streams are independent here, so the final state is deterministic
// even though goroutines interleave freely — this is the -race foil
// for the shard mutexes.
func TestStripedTableConcurrentMixed(t *testing.T) {
	tab, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2048
	_, err = parallel.MapErr(keys, 16, func(k int) (struct{}, error) {
		rng := faultnet.NewStream(99, uint64(k))
		key := uint64(k)
		steps := 8 + int(rng.Uint64()%8)
		for i := 0; i < steps; i++ {
			applyOp(op{key: key, kind: uint8(rng.Uint64() % 3), arg: uint32(rng.Uint64())},
				int64(i), tab.Get, tab.Put, tab.Delete)
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: same per-key streams applied sequentially.
	m := make(map[uint64]Session)
	for k := 0; k < keys; k++ {
		rng := faultnet.NewStream(99, uint64(k))
		key := uint64(k)
		steps := 8 + int(rng.Uint64()%8)
		for i := 0; i < steps; i++ {
			applyOp(op{key: key, kind: uint8(rng.Uint64() % 3), arg: uint32(rng.Uint64())},
				int64(i),
				func(kk uint64) (Session, bool) { s, ok := m[kk]; return s, ok },
				func(s Session) { m[s.Key] = s },
				func(kk uint64) bool { _, ok := m[kk]; delete(m, kk); return ok },
			)
		}
	}
	if tab.Len() != len(m) {
		t.Fatalf("table has %d sessions, oracle has %d", tab.Len(), len(m))
	}
	for _, s := range tab.SnapshotSorted() {
		if want, ok := m[s.Key]; !ok || want != s {
			t.Fatalf("key %d: table %+v, oracle %+v (present=%v)", s.Key, s, want, ok)
		}
	}
}
