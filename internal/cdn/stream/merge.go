package stream

import (
	"os"

	"dynamips/internal/cdn"
)

// cmpEpisode is the analysis total order — (K64, Day, K24, Hits) — the
// same one cdn.Episodes sorts by. Per-shard runs are sorted with it and
// the merger re-establishes it globally.
func cmpEpisode(a, b cdn.Association) int {
	switch {
	case a.K64 != b.K64:
		if a.K64 < b.K64 {
			return -1
		}
		return 1
	case a.Day != b.Day:
		if a.Day < b.Day {
			return -1
		}
		return 1
	case a.K24 != b.K24:
		if a.K24 < b.K24 {
			return -1
		}
		return 1
	case a.Hits != b.Hits:
		if a.Hits < b.Hits {
			return -1
		}
		return 1
	}
	return 0
}

// merger k-way-merges per-shard sorted run files back into the global
// (K64, Day, K24, Hits) order. The heap is hand-rolled: container/heap
// would box every operation (hot-path rule). Ties across sources cannot
// occur — equal tuples share a K24 and therefore a shard — but the
// comparator still breaks them by source index so the merge order is a
// total order regardless.
type merger struct {
	files []*os.File
	rs    []*Reader
	cur   []cdn.Association
	heap  []int // source indices, min at heap[0]
}

// newMerger opens every run file and primes the heap. On error it closes
// whatever it opened.
func newMerger(paths []string) (*merger, error) {
	m := &merger{
		files: make([]*os.File, 0, len(paths)),
		rs:    make([]*Reader, 0, len(paths)),
		cur:   make([]cdn.Association, 0, len(paths)),
	}
	for i := 0; i < len(paths); i++ {
		f, r, err := openSpill(paths[i])
		if err != nil {
			m.close()
			return nil, err
		}
		m.files = append(m.files, f)
		m.rs = append(m.rs, r)
		m.cur = append(m.cur, cdn.Association{})
		a, ok, err := r.Next()
		if err != nil {
			m.close()
			return nil, err
		}
		if ok {
			m.cur[i] = a
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return m, nil
}

func (m *merger) close() {
	for _, f := range m.files {
		f.Close()
	}
}

func (m *merger) less(x, y int) bool {
	if c := cmpEpisode(m.cur[x], m.cur[y]); c != 0 {
		return c < 0
	}
	return x < y
}

func (m *merger) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(m.heap) {
			return
		}
		min := l
		if r := l + 1; r < len(m.heap) && m.less(m.heap[r], m.heap[l]) {
			min = r
		}
		if !m.less(m.heap[min], m.heap[i]) {
			return
		}
		m.heap[i], m.heap[min] = m.heap[min], m.heap[i]
		i = min
	}
}

// next yields the globally smallest pending record; ok is false once
// every source is drained.
func (m *merger) next() (cdn.Association, bool, error) {
	if len(m.heap) == 0 {
		return cdn.Association{}, false, nil
	}
	src := m.heap[0]
	out := m.cur[src]
	a, ok, err := m.rs[src].Next()
	if err != nil {
		return cdn.Association{}, false, err
	}
	if ok {
		m.cur[src] = a
	} else {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
	return out, true, nil
}
