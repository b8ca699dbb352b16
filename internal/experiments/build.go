// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic pipeline: one runner per experiment, each
// printing the same rows/series the paper reports. DESIGN.md carries the
// experiment index; EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"

	"dynamips/internal/atlas"
	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
	"dynamips/internal/checkpoint"
	"dynamips/internal/core"
	"dynamips/internal/echo"
	"dynamips/internal/faultnet"
	"dynamips/internal/isp"
	"dynamips/internal/obs"
)

// Config sizes the synthetic datasets. The defaults approximate the
// paper's populations at laptop scale.
type Config struct {
	// Seed drives every generator; the same seed reproduces every table
	// byte-for-byte.
	Seed int64
	// Hours is the Atlas horizon (the paper's window is ~50,400 hours).
	Hours int64
	// ProbeScale multiplies the per-AS probe counts from Table 1.
	ProbeScale float64
	// CDNScale and CDNDays size the CDN dataset.
	CDNScale float64
	CDNDays  int
	// Workers bounds the pipeline builders' fan-out; <= 0 uses one
	// worker per CPU. The worker count never changes the generated
	// datasets: every parallel stage draws from per-unit seed-derived
	// RNG streams and merges results in input order, so any value
	// reproduces the same tables byte-for-byte.
	Workers int
	// Faults, when non-nil, injects deterministic network faults into
	// both planes: assignment exchanges (RADIUS/DHCPv6) retransmit over
	// lossy links inside every AS simulation, and hourly echo
	// measurements are dropped from the probe fleets. Fault schedules
	// come from seed-derived faultnet streams, so the worker-count
	// invariance above holds under any profile, and a non-nil all-zero
	// profile reproduces the nil output byte-for-byte.
	Faults *faultnet.Profile
	// RelayHops, when positive, routes every AS simulation's assignment
	// exchanges through that many aggregation relay hops (isp.Config's
	// relay topology); RelayFaults is the per-hop fault profile (nil
	// reuses Faults). Like Faults, both are deterministic knobs: the
	// fault schedules derive from seeded streams.
	RelayHops   int
	RelayFaults *faultnet.Profile
	// Checkpoint, when non-nil, journals every completed work unit —
	// per-profile fleet builds, per-series core analyses, per-operator
	// CDN chunks — so an interrupted build resumes from the journal's
	// intact prefix and, by the determinism contract, produces output
	// byte-identical to an uninterrupted run. The caller must key the
	// checkpoint's manifest on this Config (minus Workers and Checkpoint
	// itself, which never change the output).
	Checkpoint *checkpoint.Run
	// Obs, when non-nil, receives the run's counters and virtual-time
	// span timings. Virtual time advances one tick per completed work
	// unit (fleet, sanitized series, analyzed probe, CDN operator), and
	// the per-unit stats fold in deterministic merge order, so the
	// snapshot is byte-identical for any Workers value. Like Workers and
	// Checkpoint, Obs never changes the generated datasets and must stay
	// out of the checkpoint manifest key.
	Obs *obs.Observer
}

// Default returns the configuration the benchmarks and the CLI use.
func Default() Config {
	return Config{Seed: 20201201, Hours: 50400, ProbeScale: 1, CDNScale: 1, CDNDays: 150}
}

// Reduced returns a fast configuration for tests.
func Reduced() Config {
	return Config{Seed: 20201201, Hours: 17520, ProbeScale: 0.3, CDNScale: 0.1, CDNDays: 150}
}

// probeCounts mirrors Table 1's "All probes" column (plus Sky UK, which
// appears in Fig. 6).
var probeCounts = map[string]int{
	"DTAG": 589, "Comcast": 415, "Orange": 425, "LGI": 445,
	"Free SAS": 138, "Kabel DE": 152, "Proximus": 114, "Versatel": 80,
	"BT": 170, "Netcologne": 43, "Sky UK": 90,
}

// AtlasData is the shared product of the Atlas pipeline: simulated ASes,
// generated fleets, sanitized series, per-probe analyses.
type AtlasData struct {
	Config    Config
	PAS       []core.ProbeAnalysis
	BGP       *bgp.Table
	Names     map[uint32]string
	Durations map[uint32]*core.ASDurations
	Sanitize  atlas.SanitizeResult
	// ASNs lists the simulated ASes in Table 1 order.
	ASNs []uint32
}

// BuildAtlas runs the full Atlas pipeline: one ISP simulation and probe
// fleet per built-in profile — the per-AS stages run concurrently under
// cfg.Workers — merged in profile order, sanitized, and analyzed.
func BuildAtlas(cfg Config) (*AtlasData, error) {
	if cfg.Hours <= 0 {
		cfg.Hours = 50400
	}
	if cfg.ProbeScale <= 0 {
		cfg.ProbeScale = 1
	}
	a := &AtlasData{
		Config: cfg,
		BGP:    &bgp.Table{},
		Names:  make(map[uint32]string),
	}
	// Each AS gets a seed derived from its profile index, so the fleets
	// are independent of build order and concurrency. When a checkpoint
	// is attached, every completed fleet is journaled (series plus BGP
	// announcements — the parts the merge below consumes) in profile
	// order.
	profiles := isp.Profiles()
	fleetSpan := cfg.Obs.StartSpan("atlas/fleets")
	fleets, err := checkpoint.Stage(cfg.Checkpoint, "atlas", len(profiles), cfg.Workers,
		func(i int) (fleetUnit, error) {
			prof := profiles[i]
			probes := int(float64(probeCounts[prof.Name]) * cfg.ProbeScale)
			if probes < 10 {
				probes = 10
			}
			subs := probes * 2
			res, err := isp.Run(isp.Config{
				Profile:     prof,
				Subscribers: subs,
				Hours:       cfg.Hours,
				Seed:        cfg.Seed + int64(i)*1000,
				Faults:      cfg.Faults,
				RelayHops:   cfg.RelayHops,
				RelayFaults: cfg.RelayFaults,
			})
			if err != nil {
				return fleetUnit{}, fmt.Errorf("experiments: simulating %s: %w", prof.Name, err)
			}
			fc := atlas.DefaultFleetConfig(probes, cfg.Seed+int64(i)*1000+1)
			if cfg.Faults != nil {
				fc.Faults = *cfg.Faults
			}
			fleet, err := atlas.BuildFleet(res, fc)
			if err != nil {
				return fleetUnit{}, fmt.Errorf("experiments: fleet for %s: %w", prof.Name, err)
			}
			return fleetUnit{
				Series:        fleet.Series,
				Routes:        fleet.BGP.Entries(),
				Net:           res.Net,
				EchoesDropped: fleet.EchoesDropped,
			}, nil
		},
		checkpoint.GobEncode[fleetUnit], checkpoint.GobDecode[fleetUnit])
	if err != nil {
		return nil, err
	}
	// Virtual time advances only here, after the parallel stage completes,
	// by the number of units it processed — one tick per fleet — so the
	// span reads the same under any worker count.
	cfg.Obs.Advance(int64(len(profiles)))
	fleetSpan.End()
	var all []echo.Series
	for i, fleet := range fleets {
		prof := profiles[i]
		all = append(all, fleet.Series...)
		for _, e := range fleet.Routes {
			a.BGP.Announce(e.Prefix, e.ASN)
		}
		a.Names[prof.ASN] = prof.Name
		a.BGP.SetName(prof.ASN, prof.Name)
		a.ASNs = append(a.ASNs, prof.ASN)
		recordFleetMetrics(cfg.Obs, prof.Name, fleet.Net, fleet.EchoesDropped)
	}
	sanSpan := cfg.Obs.StartSpan("atlas/sanitize")
	sc := atlas.DefaultSanitizeConfig()
	sc.Obs = cfg.Obs
	a.Sanitize = atlas.Sanitize(all, a.BGP, sc)
	cfg.Obs.Advance(int64(len(all)))
	sanSpan.End()
	anaSpan := cfg.Obs.StartSpan("atlas/analyze")
	ec := core.DefaultExtractConfig()
	ec.Workers = cfg.Workers
	ec.Checkpoint = cfg.Checkpoint
	if a.PAS, err = core.AnalyzeErr(a.Sanitize.Clean, ec); err != nil {
		return nil, err
	}
	cfg.Obs.Advance(int64(len(a.Sanitize.Clean)))
	anaSpan.End()
	cfg.Obs.Counter("atlas_probes_analyzed").Add(int64(len(a.PAS)))
	a.Durations = core.CollectDurations(a.PAS)
	return a, nil
}

// fleetUnit is the journaled payload of one per-profile atlas build: the
// probe series and the AS's route announcements, exactly the parts
// BuildAtlas's merge consumes.
type fleetUnit struct {
	Series []echo.Series
	Routes []bgp.Entry
	// Net and EchoesDropped carry the simulation's protocol/fault
	// accounting so resumed runs replay the same metrics the original
	// build would have recorded. (Adding fields is journal-safe: the
	// checkpoint key includes CodeVersion, which retires old journals.)
	Net           isp.NetStats
	EchoesDropped int64
}

// CDNData is the shared product of the CDN pipeline.
type CDNData struct {
	Dataset  *cdn.Dataset
	Episodes []cdn.Episode
	Mobile   map[uint32]bool
	Groups   *cdn.DurationGroups
}

// MobileDegreeThreshold is the unique-/64 count above which a /24 is
// labeled mobile. The paper's fixed /24s peak at 150–200 unique /64s and
// its mobile /24s orders of magnitude higher; the threshold sits between
// the two regimes and holds across dataset scales down to ~0.1 (fixed /24s cap out near 200 unique /64s).
const MobileDegreeThreshold = 350

// BuildCDN runs the CDN pipeline: generation, filtering, labeling,
// episode extraction, duration grouping.
func BuildCDN(cfg Config) (*CDNData, error) {
	gc := cdn.DefaultGenConfig(cfg.Seed)
	gc.Workers = cfg.Workers
	gc.Checkpoint = cfg.Checkpoint
	gc.Obs = cfg.Obs
	if cfg.CDNDays > 0 {
		gc.Days = cfg.CDNDays
	}
	if cfg.CDNScale > 0 {
		gc.Scale = cfg.CDNScale
	}
	ds, err := cdn.Generate(gc)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating CDN dataset: %w", err)
	}
	c := &CDNData{Dataset: ds}
	anaSpan := cfg.Obs.StartSpan("cdn/analyze")
	c.Mobile = cdn.MobileLabel(ds.Assocs, MobileDegreeThreshold)
	c.Episodes = cdn.Episodes(ds.Assocs, cdn.DefaultEpisodeConfig())
	c.Groups = cdn.GroupDurations(ds, c.Episodes, c.Mobile)
	cfg.Obs.Advance(int64(len(ds.Operators)))
	anaSpan.End()
	cfg.Obs.Counter("cdn_episodes").Add(int64(len(c.Episodes)))
	return c, nil
}
