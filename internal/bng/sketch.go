package bng

import (
	"errors"
	"fmt"
	"net/url"
	"strconv"

	"dynamips/internal/sketch"
)

// Engine fold hooks. Each stripe's engine folds into its own
// sketch.BNGEngine set; it is single-threaded within a round and owns
// the set exclusively, so folds need no locks; the daemon merges the
// partials in stripe order at the round barrier.

// skAssign records an assignment outcome: the pool cardinalities see
// every held address, and each family's change feeds its churn top-k.
func (e *shardEngine) skAssign(addr4 uint32, p6hi uint64, p6len uint8) {
	if addr4 != 0 {
		e.sk.Card(sketch.Pfx24).Add(uint64(addr4 >> 8))
	}
	if p6len != 0 {
		e.sk.Card(sketch.Pfx64).Add(p6hi)
	}
}

// skV4Change records one v4 address change against the /24 the
// subscriber left.
func (e *shardEngine) skV4Change(oldAddr4 uint32) {
	if oldAddr4 != 0 {
		e.sk.TopK(sketch.Churn24).Add(uint64(oldAddr4>>8), 1)
	}
}

// skV6Change records one delegated-prefix change against the old /64
// group.
func (e *shardEngine) skV6Change(oldP6Hi uint64, oldP6Len uint8) {
	if oldP6Len != 0 {
		e.sk.TopK(sketch.Churn64).Add(oldP6Hi, 1)
	}
}

// skSessionEnd records a completed session's duration in hours when the
// session tears down (flap release or operator disconnect).
func (e *shardEngine) skSessionEnd(startSec, endSec int64) {
	e.sk.Quantile(sketch.DurHours).Add(float64(endSec-startSec) / 3600)
}

// SketchView is the full /sketch payload: every sketch summarized at
// the daemon's current round boundary. Like /stats it is a pure
// function of engine state, so two daemons at the same virtual hour
// render byte-identical views at any worker count.
type SketchView struct {
	VirtualHours int64            `json:"virtual_hours"`
	Sketches     []sketch.Summary `json:"sketches"`
}

// summaryProbs is the fixed quantile grid the full view samples.
var summaryProbs = []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99}

// summaryTop is the number of heavy hitters the full view lists.
const summaryTop = 10

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
	VirtualHours int64          `json:"virtual_hours"`
	Name         string         `json:"name"`
	N            uint64         `json:"n"`
	Slack        uint64         `json:"slack"`
	Top          []sketch.Entry `json:"top"`
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
		if top := tk.Top(q.K); len(top) > 0 {
			ans.Top = top // an empty answer stays a JSON null
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
	acc := sketch.BNGEngine.New()
	for _, e := range d.engines {
		if err := acc.Merge(e.sk); err != nil {
			// Engines share one schema by construction.
			panic(err)
		}
	}
	return acc
}
