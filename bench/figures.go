package main

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"dynamips/internal/atlas"
	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
	"dynamips/internal/core"
	"dynamips/internal/experiments"
	"dynamips/internal/isp"
	"dynamips/internal/parallel"
)

// figuresSize sizes the paper-figures workload.
type figuresSize struct {
	hours      int64
	probeScale float64
	cdnScale   float64
	cdnDays    int
}

// warmFigures sizes the set-up's warm-up pass.
var warmFigures = figuresSize{hours: 8760, probeScale: 0.1, cdnScale: 0.03, cdnDays: 150}

// probeCounts is Table 1's probe count per AS, from which
// experiments.BuildAtlas sizes each fleet. The traced replay needs it to
// size the same fleets; its identity check fails if the two drift apart.
var probeCounts = map[string]int{
	"DTAG": 589, "Comcast": 415, "Orange": 425, "LGI": 445,
	"Free SAS": 138, "Kabel DE": 152, "Proximus": 114, "Versatel": 80,
	"BT": 170, "Netcologne": 43, "Sky UK": 90,
}

func (b *bench) figuresConfig(sz figuresSize) experiments.Config {
	return experiments.Config{
		Seed: b.opt.seed, Hours: sz.hours, ProbeScale: sz.probeScale,
		CDNScale: sz.cdnScale, CDNDays: sz.cdnDays, Workers: benchWorkers,
	}
}

// runFigures runs, in paper order, the experiments of one pipeline.
func runFigures(atlasPipeline bool, run func(name string) error) error {
	for _, name := range experiments.Names {
		if experiments.NeedsAtlas(name) == atlasPipeline {
			if err := run(name); err != nil {
				return err
			}
		}
	}
	return nil
}

// figuresRep is what `dynamips experiment all` does: build the Atlas
// pipeline and run its experiments, then the CDN pipeline and its. It
// returns the digest of everything the experiments wrote.
func figuresRep(cfg experiments.Config) (string, error) {
	h := sha256.New()
	a, err := experiments.BuildAtlas(cfg)
	if err != nil {
		return "", err
	}
	if err := runFigures(true, func(name string) error { return experiments.RunAtlasExperiment(name, h, a) }); err != nil {
		return "", err
	}
	c, err := experiments.BuildCDN(cfg)
	if err != nil {
		return "", err
	}
	if err := runFigures(false, func(name string) error { return experiments.RunCDNExperiment(name, h, c) }); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (b *bench) figuresTimed() (timing, error) {
	var t timing
	warm := b.figuresConfig(warmFigures)
	cfg := b.figuresConfig(b.opt.size.figures)
	var first string
	// Set-up is a warm-up pass at a small size.
	err := b.reps(&t, func() error {
		_, err := figuresRep(warm)
		return err
	}, func() (float64, error) {
		sum, err := figuresRep(cfg)
		if err != nil {
			return 0, err
		}
		b.led.sameDigest("paper-figures output", &first, sum)
		return float64(len(experiments.Names)), nil
	}, nil)
	if err != nil {
		return t, err
	}
	b.notef("outputs_sha256 %s", first)
	if b.pinned() {
		b.led.check(first == b.exp.PaperFigures, "paper-figures output digest %s, pinned %s", first, b.exp.PaperFigures)
	}
	return t, nil
}

// figuresTraced runs one traced rep that replays BuildAtlas from
// isp.Run, atlas.BuildFleet, atlas.Sanitize and core.AnalyzeErr, and
// BuildCDN from cdn.Generate and the labeling and episode passes; its
// outputs must match the entry points' byte for byte.
func (b *bench) figuresTraced() (time.Duration, error) {
	cfg := b.figuresConfig(b.opt.size.figures)
	want, err := figuresRep(cfg)
	if err != nil {
		return 0, err
	}
	tr := b.tr
	h := sha256.New()
	root := tr.begin("paper-figures", 0, 0)
	s := tr.begin("experiments.build_atlas", root, 0)
	a, err := b.replayAtlas(s, cfg)
	if err != nil {
		return 0, err
	}
	tr.end(s, int64(len(a.PAS)))
	s = tr.begin("experiments.atlas_figures", root, 0)
	err = runFigures(true, func(name string) error {
		if name != "zmapbias" {
			return experiments.RunAtlasExperiment(name, h, a)
		}
		z := tr.begin("experiments.zmapbias", s, 0)
		defer tr.end(z, 0)
		return experiments.RunAtlasExperiment(name, h, a)
	})
	if err != nil {
		return 0, err
	}
	tr.end(s, 0)
	s = tr.begin("experiments.build_cdn", root, 0)
	c, err := b.replayCDN(s, cfg)
	if err != nil {
		return 0, err
	}
	tr.end(s, int64(len(c.Dataset.Assocs)))
	s = tr.begin("experiments.cdn_figures", root, 0)
	err = runFigures(false, func(name string) error { return experiments.RunCDNExperiment(name, h, c) })
	if err != nil {
		return 0, err
	}
	tr.end(s, 0)
	tr.end(root, int64(len(experiments.Names)))

	got := hex.EncodeToString(h.Sum(nil))
	b.led.check(got == want, "paper-figures: replayed pipelines wrote %s, the entry points %s", got, want)
	l := tr.breakdown(root)
	b.stageSum("trace.paper_figures_residual_share", l, "experiments.build_atlas", "experiments.build_cdn")
	for _, name := range []string{
		"isp.run", "atlas.build_fleet", "atlas.sanitize", "core.analyze",
		"cdn.generate", "cdn.label_episodes",
		"experiments.atlas_figures", "experiments.zmapbias", "experiments.cdn_figures",
	} {
		b.layer(name+"_s", "s", l.self[name].Seconds())
	}
	return tr.duration(root), nil
}

// replayAtlas does experiments.BuildAtlas's work from its layers: one ISP
// simulation and probe fleet per profile (profiles in parallel), merged
// in profile order, sanitized, and analyzed.
func (b *bench) replayAtlas(parent int, cfg experiments.Config) (*experiments.AtlasData, error) {
	tr := b.tr
	profiles := isp.Profiles()
	fleets, err := parallel.MapErr(len(profiles), cfg.Workers, func(i int) (*atlas.Fleet, error) {
		prof := profiles[i]
		probes := max(int(float64(probeCounts[prof.Name])*cfg.ProbeScale), 10)
		seed := cfg.Seed + int64(i)*1000
		s := tr.begin("isp.run", parent, i+1)
		res, err := isp.Run(isp.Config{Profile: prof, Subscribers: probes * 2, Hours: cfg.Hours, Seed: seed})
		tr.end(s, int64(probes*2))
		if err != nil {
			return nil, err
		}
		s = tr.begin("atlas.build_fleet", parent, i+1)
		fleet, err := atlas.BuildFleet(res, atlas.DefaultFleetConfig(probes, seed+1))
		tr.end(s, int64(probes))
		return fleet, err
	})
	if err != nil {
		return nil, err
	}
	a := &experiments.AtlasData{Config: cfg, BGP: &bgp.Table{}, Names: make(map[uint32]string)}
	var all []atlas.Series
	for i, fleet := range fleets {
		prof := profiles[i]
		all = append(all, fleet.Series...)
		for _, e := range fleet.BGP.Entries() {
			a.BGP.Announce(e.Prefix, e.ASN)
		}
		a.Names[prof.ASN] = prof.Name
		a.BGP.SetName(prof.ASN, prof.Name)
		a.ASNs = append(a.ASNs, prof.ASN)
	}
	s := tr.begin("atlas.sanitize", parent, 0)
	a.Sanitize = atlas.Sanitize(all, a.BGP, atlas.DefaultSanitizeConfig())
	tr.end(s, int64(len(all)))
	s = tr.begin("core.analyze", parent, 0)
	ec := core.DefaultExtractConfig()
	ec.Workers = cfg.Workers
	a.PAS, err = core.AnalyzeErr(a.Sanitize.Clean, ec)
	if err == nil {
		a.Durations = core.CollectDurations(a.PAS)
	}
	tr.end(s, int64(len(a.Sanitize.Clean)))
	return a, err
}

// replayCDN does experiments.BuildCDN's work from its layers.
func (b *bench) replayCDN(parent int, cfg experiments.Config) (*experiments.CDNData, error) {
	tr := b.tr
	gc := cdn.DefaultGenConfig(cfg.Seed)
	gc.Workers = cfg.Workers
	gc.Days = cfg.CDNDays
	gc.Scale = cfg.CDNScale
	s := tr.begin("cdn.generate", parent, 0)
	ds, err := cdn.Generate(gc)
	if err != nil {
		return nil, err
	}
	tr.end(s, int64(len(ds.Assocs)))
	s = tr.begin("cdn.label_episodes", parent, 0)
	c := &experiments.CDNData{Dataset: ds}
	c.Mobile = cdn.MobileLabel(ds.Assocs, experiments.MobileDegreeThreshold)
	c.Episodes = cdn.Episodes(ds.Assocs, cdn.DefaultEpisodeConfig())
	c.Groups = cdn.GroupDurations(ds, c.Episodes, c.Mobile)
	tr.end(s, int64(len(c.Episodes)))
	return c, nil
}
