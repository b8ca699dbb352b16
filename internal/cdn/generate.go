package cdn

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"dynamips/internal/bgp"
	"dynamips/internal/cgnat"
	"dynamips/internal/checkpoint"
	"dynamips/internal/netutil"
	"dynamips/internal/obs"
	"dynamips/internal/rir"
)

// GenConfig shapes a synthetic RUM collection run.
type GenConfig struct {
	// Days is the collection window (the paper's is ~150 days).
	Days int
	// Scale multiplies every operator's subscriber count (1.0 ≈ tens of
	// thousands of subscribers; the paper's population is documented as
	// the full-scale equivalent in DESIGN.md).
	Scale float64
	// Seed makes the run reproducible.
	Seed int64
	// ActivityProb is the per-day probability a subscriber generates
	// RUM transactions (browsing clients are not seen every day).
	ActivityProb float64
	// MismatchFrac is the fraction of raw associations whose IPv4 and
	// IPv6 come from different ASes (clients switching networks between
	// connections, §4.1); the filter must remove them.
	MismatchFrac float64
	// Operators overrides the built-in operator set when non-nil.
	Operators []Operator
	// Workers bounds the per-operator generation fan-out; <= 0 uses one
	// worker per CPU. Every operator draws from its own seed-derived RNG
	// stream and the streams are merged in operator order, so the worker
	// count never changes the generated dataset.
	Workers int
	// Checkpoint, when non-nil, journals each operator's generated chunk
	// under the "cdn" stage so an interrupted run resumes without
	// regenerating completed operators. The caller owns manifest keying:
	// the journal is only valid for an identical (Seed, Days, Scale, ...)
	// configuration.
	Checkpoint *checkpoint.Run
	// Obs, when non-nil, receives the generation stage's span (one
	// virtual tick per operator) and the raw/filtered/mismatch counters.
	// It never changes the generated dataset.
	Obs *obs.Observer
}

// DefaultGenConfig returns the experiments' configuration.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{Days: 150, Scale: 1, Seed: seed, ActivityProb: 0.75, MismatchFrac: 0.01}
}

// Normalized returns the config with the legacy soft default applied: an
// out-of-range ActivityProb becomes 0.75. Both paths (Generate and the
// streaming pipeline) normalize before validating, so they agree on the
// effective configuration.
func (cfg GenConfig) Normalized() GenConfig {
	if cfg.ActivityProb <= 0 || cfg.ActivityProb > 1 {
		cfg.ActivityProb = 0.75
	}
	return cfg
}

// OperatorSet returns the effective operator list: the override when set,
// the built-in ground-truth set otherwise.
func (cfg GenConfig) OperatorSet() []Operator {
	if cfg.Operators != nil {
		return cfg.Operators
	}
	return Operators()
}

// Validate checks the (normalized) configuration up front, so a
// misconfigured run fails fast with a config error instead of erroring
// mid-generate deep inside pick24 or the CGNAT pool loop. Generate and
// the streaming pipeline both call it before any work starts.
func (cfg GenConfig) Validate() error {
	if cfg.Days <= 0 {
		return fmt.Errorf("cdn: non-positive window")
	}
	if cfg.Days > 1<<16 {
		return fmt.Errorf("cdn: %d-day window overflows the tuple's uint16 day", cfg.Days)
	}
	if math.IsNaN(cfg.Scale) || math.IsInf(cfg.Scale, 0) || cfg.Scale <= 0 {
		return fmt.Errorf("cdn: scale %v is not a positive finite factor", cfg.Scale)
	}
	if math.IsNaN(cfg.MismatchFrac) || cfg.MismatchFrac < 0 || cfg.MismatchFrac > 1 {
		return fmt.Errorf("cdn: mismatch fraction %v outside [0, 1]", cfg.MismatchFrac)
	}
	for i, op := range cfg.OperatorSet() {
		if err := validateOperator(op); err != nil {
			return fmt.Errorf("cdn: operator %d (%s): %w", i, op.Name, err)
		}
	}
	return nil
}

// validateOperator rejects operator models that would make generation
// fail or hang mid-run: unusable address pools, division by zero in the
// /24 demand, or negative durations that would walk the day cursor
// backwards.
func validateOperator(op Operator) error {
	switch {
	case !op.BGP4.IsValid() || !op.BGP4.Addr().Unmap().Is4():
		return fmt.Errorf("BGP4 %v is not an IPv4 prefix", op.BGP4)
	case op.BGP4.Bits() > 24:
		return fmt.Errorf("BGP4 %v is longer than the /24 aggregation granularity", op.BGP4)
	case !op.BGP6.IsValid() || !op.BGP6.Addr().Is6() || op.BGP6.Addr().Unmap().Is4():
		return fmt.Errorf("BGP6 %v is not an IPv6 prefix", op.BGP6)
	case op.BGP6.Bits() > 64:
		return fmt.Errorf("BGP6 %v is longer than the /64 aggregation granularity", op.BGP6)
	case op.UsersPer24 <= 0:
		return fmt.Errorf("UsersPer24 %d must be positive", op.UsersPer24)
	case op.Subscribers < 0:
		return fmt.Errorf("negative subscriber count %d", op.Subscribers)
	case math.IsNaN(op.AssocMeanDays) || op.AssocMeanDays < 0:
		return fmt.Errorf("negative association mean %v", op.AssocMeanDays)
	case op.DelegatedLen < 0 || op.DelegatedLen > 64:
		return fmt.Errorf("delegated length /%d outside [0, 64]", op.DelegatedLen)
	}
	return nil
}

// Env is the generation environment shared by the in-memory and streaming
// paths: the operator set with its routing/registry tables and the mobile
// ground truth. The ASN-mismatch pre-filter (Keep, cached per stream by
// Filter) lives here so both paths drop exactly the same associations.
type Env struct {
	Ops         []Operator
	BGP         *bgp.Table
	RIR         *rir.Table
	TruthMobile map[uint32]bool
}

// NewEnv builds the environment for an operator set.
func NewEnv(ops []Operator) *Env {
	e := &Env{
		Ops:         ops,
		BGP:         &bgp.Table{},
		RIR:         rir.Default(),
		TruthMobile: make(map[uint32]bool),
	}
	for _, op := range ops {
		e.BGP.Announce(op.BGP4, op.ASN)
		e.BGP.Announce(op.BGP6, op.ASN)
		e.BGP.SetName(op.ASN, op.Name)
		e.TruthMobile[op.ASN] = op.Mobile
	}
	return e
}

// Keep reports whether the association survives the paper's
// pre-processing: associations whose IPv4 and IPv6 ASNs disagree are
// discarded (§4.1).
//
//lint:hotpath two trie walks; Filter calls it once per (/24, /64) run
func (e *Env) Keep(a Association) bool {
	asn4, _, ok4 := e.BGP.Origin(a.P24().Addr())
	asn6, _, ok6 := e.BGP.Origin(a.P64().Addr())
	return ok4 && ok6 && asn4 == asn6
}

// Filter is Env.Keep behind a one-entry (K24, K64) verdict cache. The
// verdict depends only on the pair, and an operator's stream repeats the
// previous record's pair for every day of an episode, so a Filter walks
// the BGP table once per run of equal pairs instead of once per record.
// Use one Filter per association stream; it is not safe for concurrent
// use.
type Filter struct {
	env   *Env
	k24   uint32
	k64   uint64
	keep  bool
	valid bool // the zero pair is a real key, so the cache starts empty
}

// NewFilter returns an empty verdict cache over e.
func (e *Env) NewFilter() Filter { return Filter{env: e} }

// Keep reports Env.Keep(a), walking the table only when a's pair differs
// from the previous call's.
//
//lint:hotpath called per raw record by both generate paths
func (f *Filter) Keep(a Association) bool {
	if !f.valid || a.K24 != f.k24 || a.K64 != f.k64 {
		f.k24, f.k64, f.valid = a.K24, a.K64, true
		f.keep = f.env.Keep(a)
	}
	return f.keep
}

// Dataset is a generated and filtered association collection.
type Dataset struct {
	Assocs []Association
	// RawCount counts associations before the ASN-mismatch filter;
	// Mismatches counts what the filter removed.
	RawCount   int
	Mismatches int
	Days       int
	Operators  []Operator
	BGP        *bgp.Table
	RIR        *rir.Table
	// TruthMobile maps each operator ASN to its mobile ground truth.
	TruthMobile map[uint32]bool
}

// Generate synthesizes the RUM dataset: per-subscriber association
// episodes sampled daily, aggregated to (/24, /64, day) tuples, then run
// through the ASN-mismatch filter exactly as the paper's pipeline does.
func Generate(cfg GenConfig) (*Dataset, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ops := cfg.OperatorSet()
	env := NewEnv(ops)
	ds := &Dataset{
		Days:        cfg.Days,
		Operators:   ops,
		BGP:         env.BGP,
		RIR:         env.RIR,
		TruthMobile: env.TruthMobile,
	}
	// One seed-derived RNG stream per operator: each operator's draw
	// sequence depends only on (Seed, operator index), never on how the
	// other operators are scheduled. Completed chunks are journaled in
	// operator order when a checkpoint is attached.
	genSpan := cfg.Obs.StartSpan("cdn/generate")
	chunks, err := checkpoint.Stage(cfg.Checkpoint, "cdn", len(ops), cfg.Workers,
		func(oi int) ([]Association, error) {
			rng := rand.New(rand.NewSource(operatorSeed(cfg.Seed, oi)))
			return generateOperator(ops[oi], ops, oi, cfg, rng)
		},
		checkpoint.GobEncode[[]Association], checkpoint.GobDecode[[]Association])
	if err != nil {
		return nil, err
	}
	cfg.Obs.Advance(int64(len(ops)))
	genSpan.End()
	var raw []Association
	for _, c := range chunks {
		raw = append(raw, c...)
	}
	ds.RawCount = len(raw)
	// The paper's pre-processing: discard associations whose IPv4 and
	// IPv6 ASNs disagree (§4.1).
	ds.Assocs = raw[:0]
	filter := env.NewFilter()
	for _, a := range raw {
		if !filter.Keep(a) {
			ds.Mismatches++
			continue
		}
		ds.Assocs = append(ds.Assocs, a)
	}
	cfg.Obs.Counter("cdn_assocs_raw").Add(int64(ds.RawCount))
	cfg.Obs.Counter("cdn_assocs_filtered").Add(int64(len(ds.Assocs)))
	cfg.Obs.Counter("cdn_mismatches_dropped").Add(int64(ds.Mismatches))
	return ds, nil
}

// sub24Count returns the operator's /24 pool size: the scaled subscriber
// demand, clamped to what the BGP4 aggregate can actually carve
// (sub24Cap). Saturating instead of overflowing means a high -scale run
// degrades to a fully multiplexed pool rather than failing mid-generate
// in pick24 or the CGNAT pool loop.
func sub24Count(op Operator, scale float64) uint32 {
	cap24 := sub24Cap(op)
	subsF := float64(op.Subscribers) * scale
	if subsF >= 1<<62 {
		// The demand dwarfs any carvable pool (and would overflow the
		// int conversion below).
		return cap24
	}
	n := uint64(int(subsF)/op.UsersPer24) + 1
	if n >= uint64(cap24) {
		return cap24
	}
	return uint32(n)
}

// sub24Cap returns the number of /24s carvable from the operator's IPv4
// aggregate: 2^(24−Bits). Validate guarantees Bits ≤ 24.
func sub24Cap(op Operator) uint32 {
	return 1 << uint(24-op.BGP4.Bits())
}

// pick24 returns the /24 key for a subscriber's current attachment: a
// draw from the operator's /24 pool. Fixed-line IPv4 changes usually land
// in a different /24 (Table 2's Diff /24 column), and CGNAT remaps freely,
// so both populations draw per association episode.
func pick24(op Operator, n24 uint32, rng *rand.Rand) (uint32, error) {
	idx := uint32(rng.Intn(int(n24)))
	p, err := netutil.SubPrefix(op.BGP4, 24, uint64(idx))
	if err != nil {
		return 0, fmt.Errorf("cdn: carving /24 for %s: %w", op.Name, err)
	}
	return netutil.U32(p.Addr()) >> 8, nil
}

// new64 draws a fresh /64 for a subscriber, honoring the operator's
// delegation structure: with probability ZeroFrac the bits below the
// delegated length are zero (a zeroing CPE), otherwise they are random
// (scrambling CPEs or direct /64 assignment).
func new64(op Operator, rng *rand.Rand) uint64 {
	span := op.BGP6.Bits() // bits fixed by the aggregate
	hi, _ := netutil.U128(op.BGP6.Addr())
	random := rng.Uint64()
	// Fill bits below the aggregate with randomness, then zero the
	// delegation's host-side bits when the CPE zeroes them.
	mask := ^uint64(0) >> uint(span)
	hi |= random & mask
	if op.DelegatedLen < 64 && rng.Float64() < op.ZeroFrac {
		hi &^= 1<<uint(64-op.DelegatedLen) - 1
	}
	return hi
}

// operatorSeed derives operator oi's RNG stream from the run seed. The
// golden-ratio multiplier spreads consecutive indices across the seed
// space so neighboring operators never share a lagged sequence.
func operatorSeed(seed int64, oi int) int64 {
	const gamma = uint64(0x9E3779B97F4A7C15) // 2^64 / φ, as in SplitMix64
	return seed ^ int64((uint64(oi)+1)*gamma)
}

// generateOperator materializes one operator's raw chunk — the in-memory
// unit Generate journals per operator.
func generateOperator(op Operator, all []Operator, oi int, cfg GenConfig, rng *rand.Rand) ([]Association, error) {
	var out []Association
	err := emitOperator(op, all, oi, cfg, rng, func(a Association) error {
		out = append(out, a)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EmitOperator streams operator oi's raw associations to emit in
// generation order, drawing from the operator's seed-derived RNG stream.
// It is the streaming pipeline's entry point: the draw sequence (and so
// the emitted tuples) is identical to what Generate journals for the same
// normalized configuration, without ever materializing the chunk. The
// caller must pass a Normalized and Validated config.
func EmitOperator(oi int, cfg GenConfig, emit func(Association) error) error {
	ops := cfg.OperatorSet()
	rng := rand.New(rand.NewSource(operatorSeed(cfg.Seed, oi)))
	return emitOperator(ops[oi], ops, oi, cfg, rng, emit)
}

func emitOperator(op Operator, all []Operator, oi int, cfg GenConfig, rng *rand.Rand, emit func(Association) error) error {
	subs := int(float64(op.Subscribers) * cfg.Scale)
	if subs <= 0 {
		subs = 1
	}
	n24 := sub24Count(op, cfg.Scale)
	activity := op.Activity
	if activity <= 0 {
		activity = cfg.ActivityProb
	}
	// Mobile subscribers sit behind a CGNAT gateway (§2.1): the gateway
	// binds each one to a public address via deterministic port blocks,
	// fixing the /24 of its first association; later remaps move it
	// across the gateway's addresses.
	var gw *cgnat.Gateway
	if op.Mobile {
		var public []netip.Prefix
		for i := uint32(0); i < n24; i++ {
			p, err := netutil.SubPrefix(op.BGP4, 24, uint64(i))
			if err != nil {
				return fmt.Errorf("cdn: cgnat pool for %s: %w", op.Name, err)
			}
			public = append(public, p)
		}
		gw = cgnat.NewGateway(cgnat.DefaultConfig(public...))
	}
	for sub := 0; sub < subs; sub++ {
		day := 0
		var k64 uint64
		haveV6 := false
		firstEpisode := true
		for day < cfg.Days {
			// One association episode: a (/24, /64) pair holding for
			// the drawn duration.
			var durDays int
			if op.StableFrac > 0 && rng.Float64() < op.StableFrac {
				durDays = cfg.Days
			} else {
				durDays = 1 + int(rng.ExpFloat64()*op.AssocMeanDays)
			}
			end := min(day+durDays, cfg.Days)
			var k24 uint32
			if gw != nil && firstEpisode {
				b, err := gw.Bind(fmt.Sprintf("%s-%d", op.Name, sub))
				if err != nil {
					return fmt.Errorf("cdn: cgnat bind for %s: %w", op.Name, err)
				}
				k24 = netutil.U32(b.Public) >> 8
			} else {
				var err error
				k24, err = pick24(op, n24, rng)
				if err != nil {
					return err
				}
			}
			firstEpisode = false
			if !haveV6 || rng.Float64() >= op.KeepV6Frac {
				k64 = new64(op, rng)
				haveV6 = true
			}
			hits := uint32(1 + rng.Intn(40))
			for d := day; d < end; d++ {
				if rng.Float64() >= activity {
					continue
				}
				a := Association{K24: k24, K64: k64, Day: uint16(d), Hits: hits}
				if cfg.MismatchFrac > 0 && rng.Float64() < cfg.MismatchFrac && len(all) > 1 {
					// The client reported over another operator's IPv4
					// (e.g. phone on WiFi vs cellular): corrupt the /24.
					other := all[(oi+1+rng.Intn(len(all)-1))%len(all)]
					ok24, err := pick24(other, sub24Count(other, cfg.Scale), rng)
					if err != nil {
						return err
					}
					a.K24 = ok24
				}
				if err := emit(a); err != nil {
					return err
				}
			}
			day = end
		}
	}
	return nil
}
