package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"dynamips/internal/cdn"
	"dynamips/internal/core"
	"dynamips/internal/rir"
	"dynamips/internal/stats"
)

// FigSeries is one plottable data series of a figure: the exact points a
// plotting tool needs to regenerate the paper's panel.
type FigSeries struct {
	Figure string        `json:"figure"`
	Panel  string        `json:"panel"`  // e.g. the AS or registry
	Series string        `json:"series"` // e.g. "v4-nds", "fixed"
	Points []stats.Point `json:"points"`
}

// Figures lists the experiments FigureData can render as plottable
// series; the other experiments are tabular and print via the text
// runners.
var Figures = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig7", "fig9"}

// FigureData returns the plottable series for a figure experiment, one of
// Figures, from the Atlas or CDN pipeline the name requires.
func FigureData(name string, a *AtlasData, c *CDNData) ([]FigSeries, error) {
	switch name {
	case "fig1":
		if a == nil {
			return nil, fmt.Errorf("experiments: fig1 needs the Atlas pipeline")
		}
		return dataFig1(a), nil
	case "fig2":
		if c == nil {
			return nil, fmt.Errorf("experiments: fig2 needs the CDN pipeline")
		}
		return dataFig2(c), nil
	case "fig3":
		if c == nil {
			return nil, fmt.Errorf("experiments: fig3 needs the CDN pipeline")
		}
		return dataFig3(c), nil
	case "fig4":
		if c == nil {
			return nil, fmt.Errorf("experiments: fig4 needs the CDN pipeline")
		}
		return dataFig4(c), nil
	case "fig7":
		if c == nil {
			return nil, fmt.Errorf("experiments: fig7 needs the CDN pipeline")
		}
		return dataFig7(c), nil
	case "fig5":
		if a == nil {
			return nil, fmt.Errorf("experiments: fig5 needs the Atlas pipeline")
		}
		return dataFig5(a), nil
	case "fig9":
		if a == nil {
			return nil, fmt.Errorf("experiments: fig9 needs the Atlas pipeline")
		}
		return dataFig9(a), nil
	default:
		return nil, fmt.Errorf("experiments: no figure data for %q (figures: %s)", name, strings.Join(Figures, " "))
	}
}

// WriteFigureJSON renders a figure's series as indented JSON.
func WriteFigureJSON(w io.Writer, name string, a *AtlasData, c *CDNData) error {
	series, err := FigureData(name, a, c)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(series)
}

func dataFig1(a *AtlasData) []FigSeries {
	var out []FigSeries
	for _, asn := range fig1ASes {
		d := a.Durations[asn]
		if d == nil {
			continue
		}
		nds, ds, v6 := core.DurationCurves(d)
		panel := a.Names[asn]
		out = append(out,
			FigSeries{Figure: "fig1", Panel: panel, Series: "v4-nds", Points: nds},
			FigSeries{Figure: "fig1", Panel: panel, Series: "v4-ds", Points: ds},
			FigSeries{Figure: "fig1", Panel: panel, Series: "v6", Points: v6},
		)
	}
	return out
}

func dataFig2(c *CDNData) []FigSeries {
	var out []FigSeries
	for _, asn := range fig1ASes {
		e := c.Groups.ByOperator[asn]
		if e == nil || e.Len() == 0 {
			continue
		}
		out = append(out, FigSeries{
			Figure: "fig2",
			Panel:  c.Dataset.BGP.Name(asn),
			Series: "association-duration-cdf",
			Points: e.Curve(),
		})
	}
	return out
}

func dataFig3(c *CDNData) []FigSeries {
	var out []FigSeries
	for _, reg := range rir.All() {
		pair := c.Groups.ByRegistry[reg]
		if pair == nil {
			continue
		}
		if pair.Fixed.Len() > 0 {
			out = append(out, FigSeries{Figure: "fig3", Panel: reg.String(),
				Series: "fixed", Points: boxPoints(pair.Fixed.Box())})
		}
		if pair.Mobile.Len() > 0 {
			out = append(out, FigSeries{Figure: "fig3", Panel: reg.String(),
				Series: "mobile", Points: boxPoints(pair.Mobile.Box())})
		}
	}
	return out
}

// boxPoints encodes a five-number summary as (quantile, value) points.
func boxPoints(b stats.BoxStats) []stats.Point {
	return []stats.Point{
		{X: 0.05, Y: b.P5}, {X: 0.25, Y: b.Q1}, {X: 0.5, Y: b.Median},
		{X: 0.75, Y: b.Q3}, {X: 0.95, Y: b.P95},
	}
}

func dataFig4(c *CDNData) []FigSeries {
	dd := cdn.Degrees(c.Dataset.Assocs, c.Mobile)
	return []FigSeries{
		{Figure: "fig4", Panel: "mobile", Series: "unique", Points: dd.MobileUnique.Density()},
		{Figure: "fig4", Panel: "mobile", Series: "weighted", Points: dd.MobileWeighted.Density()},
		{Figure: "fig4", Panel: "fixed", Series: "unique", Points: dd.FixedUnique.Density()},
		{Figure: "fig4", Panel: "fixed", Series: "weighted", Points: dd.FixedWeighted.Density()},
	}
}

func dataFig7(c *CDNData) []FigSeries {
	tz := cdn.TrailingZerosByRegistry(c.Dataset, c.Mobile)
	var out []FigSeries
	for _, reg := range rir.All() {
		b := tz[reg]
		if b == nil || b.Total == 0 {
			continue
		}
		pts := make([]stats.Point, 0, 4)
		for _, l := range []int{48, 52, 56, 60} {
			pts = append(pts, stats.Point{X: float64(l), Y: b.Frac(l)})
		}
		out = append(out, FigSeries{Figure: "fig7", Panel: reg.String(),
			Series: "frac-with-zeros", Points: pts})
	}
	return out
}

func dataFig5(a *AtlasData) []FigSeries {
	spectra := core.CPLSpectra(a.PAS)
	var out []FigSeries
	for _, asn := range fig1ASes {
		spec := spectra[asn]
		if spec == nil || spec.TotalChanges() == 0 {
			continue
		}
		changes := make([]stats.Point, 0, 65)
		probes := make([]stats.Point, 0, 65)
		for n := 0; n <= 64; n++ {
			if spec.Changes[n] > 0 {
				changes = append(changes, stats.Point{X: float64(n), Y: float64(spec.Changes[n])})
			}
			if spec.Probes[n] > 0 {
				probes = append(probes, stats.Point{X: float64(n), Y: float64(spec.Probes[n])})
			}
		}
		panel := a.Names[asn]
		out = append(out,
			FigSeries{Figure: "fig5", Panel: panel, Series: "changes", Points: changes},
			FigSeries{Figure: "fig5", Panel: panel, Series: "probes", Points: probes},
		)
	}
	return out
}

func dataFig9(a *AtlasData) []FigSeries {
	_, pooled := core.SubscriberLengths(a.PAS)
	pts := make([]stats.Point, 0, 23)
	for l := 42; l <= 64; l++ {
		if f := pooled.Fraction(l); f > 0 {
			pts = append(pts, stats.Point{X: float64(l), Y: 100 * f})
		}
	}
	return []FigSeries{{Figure: "fig9", Panel: "all-probes", Series: "pct-of-probes", Points: pts}}
}
