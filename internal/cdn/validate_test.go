package cdn

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"dynamips/internal/rir"
)

// testOp is a small, valid operator the validation and sweep tests mutate.
func testOp() Operator {
	return Operator{
		Name: "tiny", ASN: 65000, Registry: rir.RIPENCC,
		BGP4:        netip.MustParsePrefix("192.0.2.0/24"),
		BGP6:        netip.MustParsePrefix("2001:db8::/32"),
		Subscribers: 50, UsersPer24: 10, AssocMeanDays: 5, DelegatedLen: 60,
	}
}

func TestValidateErrors(t *testing.T) {
	base := DefaultGenConfig(1)
	cases := []struct {
		name string
		mut  func(*GenConfig)
		want string
	}{
		{"zero days", func(c *GenConfig) { c.Days = 0 }, "non-positive window"},
		{"day overflow", func(c *GenConfig) { c.Days = 1<<16 + 1 }, "uint16 day"},
		{"nan scale", func(c *GenConfig) { c.Scale = math.NaN() }, "not a positive finite"},
		{"inf scale", func(c *GenConfig) { c.Scale = math.Inf(1) }, "not a positive finite"},
		{"zero scale", func(c *GenConfig) { c.Scale = 0 }, "not a positive finite"},
		{"negative scale", func(c *GenConfig) { c.Scale = -2 }, "not a positive finite"},
		{"mismatch frac", func(c *GenConfig) { c.MismatchFrac = 1.5 }, "outside [0, 1]"},
		{"v6 as BGP4", func(c *GenConfig) {
			op := testOp()
			op.BGP4 = netip.MustParsePrefix("2001:db8::/32")
			c.Operators = []Operator{op}
		}, "not an IPv4 prefix"},
		{"BGP4 too long", func(c *GenConfig) {
			op := testOp()
			op.BGP4 = netip.MustParsePrefix("192.0.2.0/25")
			c.Operators = []Operator{op}
		}, "longer than the /24"},
		{"v4 as BGP6", func(c *GenConfig) {
			op := testOp()
			op.BGP6 = netip.MustParsePrefix("192.0.2.0/24")
			c.Operators = []Operator{op}
		}, "not an IPv6 prefix"},
		{"BGP6 too long", func(c *GenConfig) {
			op := testOp()
			op.BGP6 = netip.MustParsePrefix("2001:db8::/72")
			c.Operators = []Operator{op}
		}, "longer than the /64"},
		{"zero UsersPer24", func(c *GenConfig) {
			op := testOp()
			op.UsersPer24 = 0
			c.Operators = []Operator{op}
		}, "UsersPer24"},
		{"negative subscribers", func(c *GenConfig) {
			op := testOp()
			op.Subscribers = -1
			c.Operators = []Operator{op}
		}, "negative subscriber"},
		{"negative assoc mean", func(c *GenConfig) {
			op := testOp()
			op.AssocMeanDays = -2
			c.Operators = []Operator{op}
		}, "negative association mean"},
		{"delegated length", func(c *GenConfig) {
			op := testOp()
			op.DelegatedLen = 65
			c.Operators = []Operator{op}
		}, "outside [0, 64]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			_, err := Generate(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want it to mention %q", err, tc.want)
			}
		})
	}
}

func TestSub24CountClamp(t *testing.T) {
	op := testOp()
	op.BGP4 = netip.MustParsePrefix("198.51.0.0/22") // 4 carvable /24s
	if got := sub24Cap(op); got != 4 {
		t.Fatalf("sub24Cap = %d, want 4", got)
	}
	// Below the cap the demand formula is untouched.
	op.Subscribers, op.UsersPer24 = 20, 10
	if got := sub24Count(op, 1); got != 3 {
		t.Errorf("in-range demand = %d, want 3", got)
	}
	// At and past the boundary the pool saturates instead of overflowing.
	for _, scale := range []float64{2, 100, 1e6, 1e30, math.MaxFloat64} {
		if got := sub24Count(op, scale); got != 4 {
			t.Errorf("scale %v: sub24Count = %d, want saturated 4", scale, got)
		}
	}
	// Every built-in operator saturates to its own carvable cap.
	for _, op := range Operators() {
		if got := sub24Count(op, 1e12); got != sub24Cap(op) {
			t.Errorf("%s: sub24Count = %d, want cap %d", op.Name, got, sub24Cap(op))
		}
	}
}

// TestScaleSweepPoolExhaustion drives a tiny operator pool across its
// exhaustion boundary: every scale must generate successfully (pre-clamp,
// the oversized /24 demand errored mid-generate inside pick24), and every
// emitted /24 must stay inside the operator's aggregate.
func TestScaleSweepPoolExhaustion(t *testing.T) {
	op := testOp()
	op.BGP4 = netip.MustParsePrefix("198.51.0.0/22")
	op.Subscribers, op.UsersPer24 = 30, 10
	// Demand crosses the 4-/24 cap at scale > 1: 30*s/10+1 > 4.
	for _, scale := range []float64{0.5, 1, 2, 40, 5000} {
		cfg := GenConfig{Days: 5, Scale: scale, Seed: 3, ActivityProb: 0.9,
			Operators: []Operator{op}}
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		if len(ds.Assocs) == 0 {
			t.Fatalf("scale %v: empty dataset", scale)
		}
		for _, a := range ds.Assocs {
			if !op.BGP4.Contains(a.P24().Addr()) {
				t.Fatalf("scale %v: /24 %v escaped pool %v", scale, a.P24(), op.BGP4)
			}
		}
	}
}

// TestScaleSweepBuiltinOperators: the full built-in set (LGI's /14 is the
// tightest pool: it exhausts past scale ≈ 19) must survive a sweep across
// that boundary without mid-generate errors.
func TestScaleSweepBuiltinOperators(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	for _, scale := range []float64{5, 25} {
		cfg := DefaultGenConfig(11)
		cfg.Days = 2
		cfg.Scale = scale
		ds, err := Generate(cfg)
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		if len(ds.Assocs) == 0 {
			t.Fatalf("scale %v: empty dataset", scale)
		}
	}
}

// TestEpisodesPermutationProperty: over a realistic generated dataset,
// episode extraction is a pure function of the association multiset.
func TestEpisodesPermutationProperty(t *testing.T) {
	cfg := DefaultGenConfig(17)
	cfg.Scale = 0.02
	cfg.Days = 20
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Episodes(ds.Assocs, DefaultEpisodeConfig())
	if len(want) == 0 {
		t.Fatal("no episodes")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		shuf := append([]Association(nil), ds.Assocs...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		got := Episodes(shuf, DefaultEpisodeConfig())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: episodes depend on input permutation", trial)
		}
	}
}
