package sketch

// Parameters of every production sketch. They are part of the
// determinism contract: every partial of a set is built with the same
// accuracy, capacity and seed, so partials merge to byte-identical
// state at any -workers value. TopKCap also sets where a heavy-hitter
// summary leaves its exact regime: below TopKCap distinct keys a merged
// Misra-Gries summary is a pure function of the input multiset; above
// it, only the N/k error bound is partition-invariant (see DESIGN.md
// "Online analysis").
const (
	// Alpha bounds a quantile sketch's rank error by alpha·n.
	Alpha = 0.01
	// TopKCap is the heavy-hitter capacity; estimates are within
	// N/TopKCap of truth.
	TopKCap = 1024
	// CardP is the cardinality register precision (2^p registers,
	// RSE ≈ 1.04/2^(p/2) ≈ 0.8%).
	CardP = 14
	// CardSeed seeds the cardinality hash; fixed so independently built
	// partials share register assignments and merge by max.
	CardSeed = 0x64796E616D495073 // "dynamIPs"
)

// Sketch names. A name means the same summary in every schema that
// holds it.
const (
	Churn24   = "churn24"    // top-k: /24s by v4 address changes
	Churn64   = "churn64"    // top-k: /64 groups by delegated-prefix changes
	Deg24     = "deg24"      // quantile: distinct-/64 degree per /24
	DurFixed  = "dur_fixed"  // quantile: fixed episode durations (days)
	DurHours  = "dur_hours"  // quantile: completed session durations (hours)
	DurMobile = "dur_mobile" // quantile: mobile episode durations (days)
	Hot24     = "hot24"      // top-k: /24s by distinct-/64 churn
	Hot64     = "hot64"      // top-k: /64s by association count
	Pfx24     = "pfx24"      // cardinality: distinct /24s
	Pfx64     = "pfx64"      // cardinality: distinct /64s
	Rows24    = "rows24"     // top-k: /24s by association rows
	Rows64    = "rows64"     // top-k: /64s by association rows
)

// Field is one named sketch of a Schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema declares what a Set holds. Every partial and every merged
// state of one pipeline is built from the same Schema, so Merge never
// sees a schema mismatch.
type Schema []Field

// The production schemas.
var (
	// CDNAnalysis is the stream analyze pipeline's set: each shard's
	// partial and the merged barrier state.
	CDNAnalysis = Schema{
		{Deg24, KindQuantile}, {DurFixed, KindQuantile}, {DurMobile, KindQuantile},
		{Hot24, KindTopK}, {Hot64, KindTopK}, {Pfx24, KindCard}, {Pfx64, KindCard},
	}
	// CDNTail is the raw-association view a live observer folds from
	// spill files alone, without the sort or the k-way merge. Episode
	// durations and per-/24 degrees need the full reduce, so it tracks
	// row activity and cardinalities only.
	CDNTail = Schema{
		{Pfx24, KindCard}, {Pfx64, KindCard}, {Rows24, KindTopK}, {Rows64, KindTopK},
	}
	// BNGEngine is serve-bng's set: each stripe engine's partial and the
	// round barrier's merge.
	BNGEngine = Schema{
		{Churn24, KindTopK}, {Churn64, KindTopK}, {DurHours, KindQuantile},
		{Pfx24, KindCard}, {Pfx64, KindCard},
	}
)

// New returns an empty set with one sketch per field, built with the
// package parameters. It panics on an invalid schema (an empty,
// oversized or repeated name, or an unknown kind): schemas are
// declarations, not input data.
func (sc Schema) New() *Set {
	s := NewSet()
	for _, f := range sc {
		var sk Sketch
		switch f.Kind {
		case KindQuantile:
			sk = NewQuantile(Alpha)
		case KindTopK:
			sk = NewTopK(TopKCap)
		case KindCard:
			sk = NewCard(CardP, CardSeed)
		default:
			panic("sketch: schema field of unknown kind")
		}
		if err := s.Put(f.Name, sk); err != nil {
			panic(err)
		}
	}
	return s
}
