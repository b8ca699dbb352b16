package bng

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"

	"dynamips/internal/sketch"
)

// Sketch schema parameters for the assignment plane. Mirrors the CDN
// stream pipeline's error knobs (rank error ≤ alpha·n, heavy-hitter
// error ≤ N/k, cardinality RSE ≈ 0.8%) with an independently versioned
// schema.
const (
	sketchAlpha    = 0.01
	sketchTopK     = 1024
	sketchCardP    = 14
	sketchCardSeed = 0x64796E616D495073
)

// Canonical sketch names in the daemon's analysis set.
const (
	SkChurn24    = "churn24"   // top-k: /24s by v4 address changes
	SkChurn64    = "churn64"   // top-k: /64 groups by delegated-prefix changes
	SkDurSession = "dur_hours" // quantile: completed session durations (hours)
	SkPfx24      = "pfx24"     // cardinality: distinct /24s ever assigned from
	SkPfx64      = "pfx64"     // cardinality: distinct /64 prefix groups assigned
)

// newEngineSketch returns an empty sketch set with the assignment-plane
// schema. Every stripe's partial and the daemon's merged barrier state
// share this shape.
func newEngineSketch() *sketch.Set {
	s := sketch.NewSet()
	for _, it := range []struct {
		name string
		sk   sketch.Sketch
	}{
		{SkChurn24, sketch.NewTopK(sketchTopK)},
		{SkChurn64, sketch.NewTopK(sketchTopK)},
		{SkDurSession, sketch.NewQuantile(sketchAlpha)},
		{SkPfx24, sketch.NewCard(sketchCardP, sketchCardSeed)},
		{SkPfx64, sketch.NewCard(sketchCardP, sketchCardSeed)},
	} {
		if err := s.Put(it.name, it.sk); err != nil {
			panic(err)
		}
	}
	return s
}

// Engine fold hooks. Each stripe's engine is single-threaded within a
// round and owns its set exclusively, so folds need no locks; the
// daemon merges the partials in stripe order at the round barrier.

// skAssign records an assignment outcome: the pool cardinalities see
// every held address, and each family's change feeds its churn top-k.
func (e *shardEngine) skAssign(addr4 uint32, p6hi uint64, p6len uint8) {
	if addr4 != 0 {
		e.sk.Card(SkPfx24).Add(uint64(addr4 >> 8))
	}
	if p6len != 0 {
		e.sk.Card(SkPfx64).Add(p6hi)
	}
}

// skV4Change records one v4 address change against the /24 the
// subscriber left.
func (e *shardEngine) skV4Change(oldAddr4 uint32) {
	if oldAddr4 != 0 {
		e.sk.TopK(SkChurn24).Add(uint64(oldAddr4>>8), 1)
	}
}

// skV6Change records one delegated-prefix change against the old /64
// group.
func (e *shardEngine) skV6Change(oldP6Hi uint64, oldP6Len uint8) {
	if oldP6Len != 0 {
		e.sk.TopK(SkChurn64).Add(oldP6Hi, 1)
	}
}

// skSessionEnd records a completed session's duration in hours when the
// session tears down (flap release or operator disconnect).
func (e *shardEngine) skSessionEnd(startSec, endSec int64) {
	e.sk.Quantile(SkDurSession).Add(float64(endSec-startSec) / 3600)
}

// QuantilePoint is one (probability, value) sample of a duration CDF.
type QuantilePoint struct {
	P float64 `json:"p"`
	V float64 `json:"v"`
}

// TopEntry is one heavy hitter in a /sketch summary.
type TopEntry struct {
	Key   uint64 `json:"key"`
	Count uint64 `json:"count"`
}

// SketchSummary is one sketch's canonical /sketch rendering: exactly
// the fields its kind defines, in a deterministic order.
type SketchSummary struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "quantile" | "topk" | "card"
	// Quantile fields.
	Count     uint64          `json:"count,omitempty"`
	Quantiles []QuantilePoint `json:"quantiles,omitempty"`
	// Top-k fields: estimates undercount by at most Slack ≤ N/k.
	N     uint64     `json:"n,omitempty"`
	Slack uint64     `json:"slack,omitempty"`
	Top   []TopEntry `json:"top,omitempty"`
	// Cardinality fields.
	Estimate float64 `json:"estimate,omitempty"`
	RSE      float64 `json:"rse,omitempty"`
}

// SketchView is the full /sketch payload: every sketch summarized at
// the daemon's current round boundary. Like /stats it is a pure
// function of engine state, so two daemons at the same virtual hour
// render byte-identical views at any worker count.
type SketchView struct {
	VirtualHours int64           `json:"virtual_hours"`
	Sketches     []SketchSummary `json:"sketches"`
}

// summaryProbs is the fixed quantile grid the full view samples.
var summaryProbs = []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}

// summaryTop is the number of heavy hitters the full view lists.
const summaryTop = 10

func buildSketchView(hours int64, s *sketch.Set) SketchView {
	v := SketchView{VirtualHours: hours}
	for _, name := range s.Names() {
		sum := SketchSummary{Name: name}
		switch s.KindOf(name) {
		case sketch.KindQuantile:
			q := s.Quantile(name)
			sum.Kind = "quantile"
			sum.Count = q.Count()
			if sum.Count > 0 {
				for _, p := range summaryProbs {
					sum.Quantiles = append(sum.Quantiles, QuantilePoint{P: p, V: q.Query(p)})
				}
			}
		case sketch.KindTopK:
			tk := s.TopK(name)
			sum.Kind = "topk"
			sum.N = tk.N()
			sum.Slack = tk.Slack()
			for _, e := range tk.Top(summaryTop) {
				sum.Top = append(sum.Top, TopEntry{Key: e.Key, Count: e.Count})
			}
		case sketch.KindCard:
			c := s.Card(name)
			sum.Kind = "card"
			sum.Estimate = c.Estimate()
			sum.RSE = c.RSE()
		}
		v.Sketches = append(v.Sketches, sum)
	}
	return v
}

// SketchQuery is a parsed /sketch request.
type SketchQuery struct {
	// Op selects the response: "" (full summary view), "quantile",
	// "topk", "card", or "binary" (the canonical encoded set).
	Op   string
	Name string
	P    float64 // quantile probability
	K    int     // topk entry count
}

// Query-parse errors. The parser is a pure function of the raw query
// string so it can be fuzzed without a daemon.
var (
	ErrSketchQueryParam = errors.New("bng: unknown or malformed sketch query parameter")
	ErrSketchQueryOp    = errors.New("bng: unknown sketch query op")
	ErrSketchQueryName  = errors.New("bng: sketch query needs a name")
	ErrSketchQueryRange = errors.New("bng: sketch query value out of range")
)

// maxSketchTop bounds a topk query's entry count.
const maxSketchTop = 4096

// ParseSketchQuery parses a /sketch raw query string. Empty input is
// the full-view query. It is strict: unknown keys, repeated keys, and
// out-of-range values are rejected rather than ignored, so a typo never
// silently falls back to the full view.
func ParseSketchQuery(rawQuery string) (SketchQuery, error) {
	q := SketchQuery{P: 0.5, K: summaryTop}
	if rawQuery == "" {
		return q, nil
	}
	vals, err := url.ParseQuery(rawQuery)
	if err != nil {
		return SketchQuery{}, ErrSketchQueryParam
	}
	var hasP, hasK, hasFormat bool
	for key, vs := range vals {
		if len(vs) != 1 {
			return SketchQuery{}, ErrSketchQueryParam
		}
		v := vs[0]
		switch key {
		case "op":
			q.Op = v
		case "name":
			q.Name = v
		case "p":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return SketchQuery{}, ErrSketchQueryParam
			}
			if !(f >= 0 && f <= 1) { // rejects NaN too
				return SketchQuery{}, ErrSketchQueryRange
			}
			q.P = f
			hasP = true
		case "k":
			n, err := strconv.Atoi(v)
			if err != nil {
				return SketchQuery{}, ErrSketchQueryParam
			}
			if n < 1 || n > maxSketchTop {
				return SketchQuery{}, ErrSketchQueryRange
			}
			q.K = n
			hasK = true
		case "format":
			if v != "binary" {
				return SketchQuery{}, ErrSketchQueryParam
			}
			hasFormat = true
		default:
			return SketchQuery{}, ErrSketchQueryParam
		}
	}
	if hasFormat {
		if q.Op != "" || q.Name != "" || hasP || hasK {
			return SketchQuery{}, ErrSketchQueryParam
		}
		q.Op = "binary"
		return q, nil
	}
	switch q.Op {
	case "":
		if q.Name != "" || hasP || hasK {
			return SketchQuery{}, ErrSketchQueryParam
		}
	case "quantile":
		if q.Name == "" {
			return SketchQuery{}, ErrSketchQueryName
		}
		if hasK {
			return SketchQuery{}, ErrSketchQueryParam
		}
	case "topk":
		if q.Name == "" {
			return SketchQuery{}, ErrSketchQueryName
		}
		if hasP {
			return SketchQuery{}, ErrSketchQueryParam
		}
	case "card":
		if q.Name == "" {
			return SketchQuery{}, ErrSketchQueryName
		}
		if hasP || hasK {
			return SketchQuery{}, ErrSketchQueryParam
		}
	default:
		return SketchQuery{}, ErrSketchQueryOp
	}
	return q, nil
}

// QuantileAnswer is the op=quantile payload.
type QuantileAnswer struct {
	VirtualHours int64   `json:"virtual_hours"`
	Name         string  `json:"name"`
	Count        uint64  `json:"count"`
	P            float64 `json:"p"`
	Value        float64 `json:"value"`
}

// TopKAnswer is the op=topk payload.
type TopKAnswer struct {
	VirtualHours int64      `json:"virtual_hours"`
	Name         string     `json:"name"`
	N            uint64     `json:"n"`
	Slack        uint64     `json:"slack"`
	Top          []TopEntry `json:"top"`
}

// CardAnswer is the op=card payload.
type CardAnswer struct {
	VirtualHours int64   `json:"virtual_hours"`
	Name         string  `json:"name"`
	Estimate     float64 `json:"estimate"`
	RSE          float64 `json:"rse"`
}

// ErrSketchUnknown reports a query against a name the schema does not
// hold, or one whose kind does not match the op.
var ErrSketchUnknown = errors.New("bng: no such sketch for that op")

// QuerySketch answers a parsed query against the cached round-boundary
// sketch state. Op "binary" is served by SketchBinary instead.
func (d *Daemon) QuerySketch(q SketchQuery) (any, error) {
	c := d.current()
	s, hours := c.sketchSet, c.hours
	switch q.Op {
	case "quantile":
		if s.KindOf(q.Name) != sketch.KindQuantile {
			return nil, ErrSketchUnknown
		}
		qu := s.Quantile(q.Name)
		return QuantileAnswer{VirtualHours: hours, Name: q.Name,
			Count: qu.Count(), P: q.P, Value: qu.Query(q.P)}, nil
	case "topk":
		if s.KindOf(q.Name) != sketch.KindTopK {
			return nil, ErrSketchUnknown
		}
		tk := s.TopK(q.Name)
		ans := TopKAnswer{VirtualHours: hours, Name: q.Name, N: tk.N(), Slack: tk.Slack()}
		for _, e := range tk.Top(q.K) {
			ans.Top = append(ans.Top, TopEntry{Key: e.Key, Count: e.Count})
		}
		return ans, nil
	case "card":
		if s.KindOf(q.Name) != sketch.KindCard {
			return nil, ErrSketchUnknown
		}
		c := s.Card(q.Name)
		return CardAnswer{VirtualHours: hours, Name: q.Name,
			Estimate: c.Estimate(), RSE: c.RSE()}, nil
	default:
		return nil, fmt.Errorf("bng: QuerySketch cannot answer op %q", q.Op)
	}
}

// Sketch returns the cached full sketch view.
func (d *Daemon) Sketch() SketchView { return d.current().sketchView }

// SketchBinary returns the canonical CRC-framed encoding of the merged
// sketch set — the same codec the stream pipeline journals, so a
// watcher can decode, merge, and re-serve daemon sketches offline. It
// is encoded on demand from the last round boundary's merged set.
func (d *Daemon) SketchBinary() []byte { return d.current().sketchSet.Encode() }

// mergeEngineSketches folds every stripe's partial, in stripe-index
// order, into one fresh set. Called at the round barrier (engines
// quiescent); the result is worker-count independent because the
// stripe partition and each stripe's event order are.
func (d *Daemon) mergeEngineSketches() *sketch.Set {
	acc := newEngineSketch()
	for _, e := range d.engines {
		if err := acc.Merge(e.sk); err != nil {
			// Engines share one schema by construction.
			panic(err)
		}
	}
	return acc
}
