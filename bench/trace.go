package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// tracer records spans in memory for the traced reps. Spans are opened
// and closed only in this package, around calls into the layers; the
// program under test carries no instrumentation of its own.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. parent and the ids handed out by begin are
// indexes into tracer.spans plus one, so 0 means "no parent". track
// separates concurrent work in the trace viewer: 0 is the caller's
// goroutine, parallel units get their own.
type span struct {
	name       string
	parent     int
	track      int
	start, end time.Duration
	records    int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, track int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, track: track, start: now})
	return len(t.spans)
}

// end closes span id; records is the work it did, the denominator of
// the per-record costs.
func (t *tracer) end(id int, records int64) {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
	t.spans[id-1].records = records
}

func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.end - s.start
}

// durations returns the durations of every span named name under root.
func (t *tracer) durations(root int, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, id := range t.subtree(root) {
		if s := t.spans[id-1]; s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// subtree lists root and its descendants. A child always begins after
// its parent, so one forward pass over the spans finds them all.
func (t *tracer) subtree(root int) []int {
	in := map[int]bool{root: true}
	ids := []int{root}
	for id := root + 1; id <= len(t.spans); id++ {
		if in[t.spans[id-1].parent] {
			in[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// layers is the wall-time breakdown of one traced rep.
type layers struct {
	wall     time.Duration
	self     map[string]time.Duration // per span name
	records  map[string]int64         // per span name
	residual time.Duration            // the root's own self time
}

// breakdown charges the wall time of root's span to the innermost spans
// running at each instant. A layer's self time is its spans' time minus
// the part their child spans cover; when k innermost spans run at once
// on parallel workers, each is charged 1/k of that interval. The charges
// therefore sum to the root's wall time exactly, and what no layer span
// covers is the root's residual.
func (t *tracer) breakdown(root int) layers {
	t.mu.Lock()
	defer t.mu.Unlock()
	type edge struct {
		at    time.Duration
		start bool
		id    int
	}
	ids := t.subtree(root)
	inTree := make(map[int]bool, len(ids))
	var edges []edge
	for _, id := range ids {
		inTree[id] = true
		s := t.spans[id-1]
		edges = append(edges, edge{s.start, true, id}, edge{s.end, false, id})
	}
	// At equal times, ends go before starts; children end before and
	// start after their parents.
	slices.SortFunc(edges, func(a, b edge) int {
		switch {
		case a.at != b.at:
			return cmp.Compare(a.at, b.at)
		case a.start != b.start:
			if a.start {
				return 1
			}
			return -1
		case a.start:
			return a.id - b.id
		default:
			return b.id - a.id
		}
	})
	out := layers{self: map[string]time.Duration{}, records: map[string]int64{}}
	activeKids := map[int]int{}
	leaves := map[int]bool{}
	var prev time.Duration
	for _, e := range edges {
		if n := len(leaves); n > 0 && e.at > prev {
			share := (e.at - prev) / time.Duration(n)
			for id := range leaves {
				out.self[t.spans[id-1].name] += share
			}
		}
		prev = e.at
		parent := t.spans[e.id-1].parent
		if !inTree[parent] {
			parent = 0
		}
		if e.start {
			leaves[e.id] = true
			if parent != 0 {
				activeKids[parent]++
				delete(leaves, parent)
			}
			continue
		}
		delete(leaves, e.id)
		if parent != 0 {
			activeKids[parent]--
			if activeKids[parent] == 0 {
				leaves[parent] = true
			}
		}
	}
	rootSpan := t.spans[root-1]
	out.wall = rootSpan.end - rootSpan.start
	out.residual = out.self[rootSpan.name]
	delete(out.self, rootSpan.name)
	for _, id := range ids[1:] {
		s := t.spans[id-1]
		out.records[s.name] += s.records
	}
	return out
}

// perRecord returns the named layer's self time per record in
// nanoseconds.
func (l layers) perRecord(name string) float64 {
	return float64(l.self[name].Nanoseconds()) / float64(max(l.records[name], 1))
}

// writeChrome writes every span as Chrome trace-event JSON ("X"
// complete events, microsecond timestamps), the format chrome://tracing
// and ui.perfetto.dev open.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"records": s.records}
		if s.parent != 0 {
			args["parent"] = t.spans[s.parent-1].name
		}
		events = append(events, event{
			Name: s.name, Cat: "bench", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.track, Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
