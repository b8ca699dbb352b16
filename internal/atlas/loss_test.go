package atlas

import (
	"reflect"
	"testing"

	"dynamips/internal/echo"
	"dynamips/internal/faultnet"
	"dynamips/internal/isp"
)

func lossSimResult(t *testing.T) *isp.Result {
	t.Helper()
	profs := isp.Profiles()
	res, err := isp.Run(isp.Config{
		Profile:     profs[0],
		Subscribers: 60,
		Hours:       6000,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func lossFleet(t *testing.T, res *isp.Result, drop float64) *Fleet {
	t.Helper()
	cfg := DefaultFleetConfig(30, 2)
	cfg.Faults = faultnet.Profile{Drop: drop}
	f, err := BuildFleet(res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDropEchoesDeterministic(t *testing.T) {
	res := lossSimResult(t)
	a := lossFleet(t, res, 0.1)
	b := lossFleet(t, res, 0.1)
	if !reflect.DeepEqual(a.Series, b.Series) {
		t.Fatal("identical seeds produced different lossy fleets")
	}
}

func TestDropEchoesZeroProfileChangesNothing(t *testing.T) {
	res := lossSimResult(t)
	clean := lossFleet(t, res, 0)
	base, err := BuildFleet(res, DefaultFleetConfig(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Series, base.Series) {
		t.Fatal("zero-drop fault profile perturbed the fleet")
	}
}

func TestDropEchoesShrinksObservations(t *testing.T) {
	res := lossSimResult(t)
	base := lossFleet(t, res, 0)
	lossy := lossFleet(t, res, 0.3)
	var baseH, lossH int64
	for i := range base.Series {
		baseH += base.Series[i].ObservedHours()
		lossH += lossy.Series[i].ObservedHours()
		for _, sp := range lossy.Series[i].V4 {
			if sp.Start > sp.End {
				t.Fatalf("probe %d: inverted span %+v", i, sp)
			}
		}
	}
	if lossH >= baseH {
		t.Fatalf("30%% echo loss did not shrink observations: %d -> %d hours", baseH, lossH)
	}
	// The binomial expectation is 70% survival; allow a wide band.
	if f := float64(lossH) / float64(baseH); f < 0.6 || f > 0.8 {
		t.Fatalf("30%% loss left %.1f%% of hours, want ~70%%", 100*f)
	}
}

// TestDropEchoesSplitsDoNotFabricateValues asserts the lossy spans carry
// only values the clean spans carried, over sub-ranges of the clean
// spans: gaps remove observations, never invent them.
func TestDropEchoesSplitsDoNotFabricateValues(t *testing.T) {
	res := lossSimResult(t)
	base := lossFleet(t, res, 0)
	lossy := lossFleet(t, res, 0.2)
	for i := range base.Series {
		cover := base.Series[i].V4
		for _, sp := range lossy.Series[i].V4 {
			found := false
			for _, b := range cover {
				if sp.Start >= b.Start && sp.End <= b.End && sp.Echo == b.Echo && sp.Src == b.Src {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("probe %d: lossy span %+v not contained in any clean span", i, sp)
			}
		}
	}
}

func TestDropEchoesUnitGeometry(t *testing.T) {
	spans := []echo.Span{{Start: 0, End: 99, Echo: TestAddr, Src: TestAddr}}
	out := dropEchoes(spans, 0.5, faultnet.NewStream(3, 0))
	var hours int64
	last := int64(-1)
	for _, sp := range out {
		if sp.Start > sp.End || sp.Start <= last {
			t.Fatalf("bad span order/geometry: %+v (prev end %d)", out, last)
		}
		last = sp.End
		hours += sp.Hours()
	}
	if hours >= 100 || hours == 0 {
		t.Fatalf("p=0.5 drop left %d of 100 hours", hours)
	}
	if got := dropEchoes(spans, 1, faultnet.NewStream(3, 0)); got != nil {
		t.Fatalf("p=1 kept spans: %+v", got)
	}
	if got := dropEchoes(spans, 0, faultnet.NewStream(3, 0)); !reflect.DeepEqual(got, spans) {
		t.Fatalf("p=0 altered spans: %+v", got)
	}
}
