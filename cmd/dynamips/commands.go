package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"dynamips/internal/atlas"
	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
	"dynamips/internal/cdn/stream"
	"dynamips/internal/checkpoint"
	"dynamips/internal/core"
	"dynamips/internal/echo"
	"dynamips/internal/experiments"
	"dynamips/internal/faultnet"
	"dynamips/internal/isp"
	"dynamips/internal/obs"
)

// logf is the CLI's warning channel: checkpoint recovery notes, stale
// manifest discards, journal truncations. Stderr, so it never pollutes a
// dataset being written to stdout.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dynamips: "+format+"\n", args...)
}

// writeOutput routes a command's output: "-" (or empty) streams to stdout,
// anything else goes through the checkpoint atomic writer — tempfile,
// fsync, CRC-32C read-back, rename — so an interrupted run never leaves a
// truncated destination file.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "" || path == "-" {
		bw := bufio.NewWriter(os.Stdout)
		if err := write(bw); err != nil {
			return err
		}
		return bw.Flush()
	}
	return checkpoint.WriteFileAtomic(path, write)
}

// runSpec is the manifest command record: everything needed to re-run (or
// resume) a checkpointed invocation. It doubles as the manifest key's
// config input after normalization (see specKey).
type runSpec struct {
	Kind       string  `json:"kind"` // "experiment", "gen-cdn", or "analyze-cdn"
	Name       string  `json:"name,omitempty"`
	Out        string  `json:"out"`
	JSON       bool    `json:"json,omitempty"`
	Seed       int64   `json:"seed"`
	Hours      int64   `json:"hours,omitempty"`
	ProbeScale float64 `json:"probe_scale,omitempty"`
	CDNScale   float64 `json:"cdn_scale,omitempty"`
	CDNDays    int     `json:"cdn_days,omitempty"`
	Days       int     `json:"days,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Faults     string  `json:"faults,omitempty"`
	// RelayHops/RelayFaults route assignment exchanges through an
	// aggregation relay chain (experiment runs only). Both change the
	// generated datasets, so they participate in the manifest key.
	RelayHops   int    `json:"relay_hops,omitempty"`
	RelayFaults string `json:"relay_faults,omitempty"`
	Workers     int    `json:"workers,omitempty"`
	In          string `json:"in,omitempty"`
	Threshold   int    `json:"threshold,omitempty"`
	Pfx2as      string `json:"pfx2as,omitempty"`
	Shards      int    `json:"shards,omitempty"`
	SpillDir    string `json:"spill_dir,omitempty"`
}

// specKey derives the manifest key for a spec. Workers and SpillDir are
// zeroed before hashing: the determinism contract guarantees the worker
// count never changes any output, and the spill directory only decides
// where scratch files live (a resume that moves it recomputes the units
// whose files no longer validate). Everything else participates — a
// different seed, scale, fault profile, experiment, shard width, or
// destination is a different run and must invalidate stale journals.
func specKey(spec runSpec) (checkpoint.Key, error) {
	spec.Workers = 0
	spec.SpillDir = ""
	h, err := checkpoint.HashConfig(spec)
	if err != nil {
		return checkpoint.Key{}, err
	}
	return checkpoint.Key{Seed: spec.Seed, ConfigHash: h, Code: checkpoint.CodeVersion()}, nil
}

// openCheckpoint opens dir as this spec's checkpoint run; a "" dir means
// checkpointing is off and returns a nil run (which every consumer
// accepts).
func openCheckpoint(dir string, spec runSpec) (*checkpoint.Run, error) {
	if dir == "" {
		return nil, nil
	}
	key, err := specKey(spec)
	if err != nil {
		return nil, err
	}
	command, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("recording command: %w", err)
	}
	return checkpoint.Open(dir, key, command, logf)
}

func cmdProfiles(args []string) error {
	fs := newFlagSet("profiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Printf("%-12s %6s %3s %-8s %9s %6s %6s %6s\n",
		"name", "asn", "cc", "backend", "delegated", "pool6", "pool4", "DSfrac")
	for _, p := range isp.Profiles() {
		backend := "radius"
		if p.Backend == isp.BackendDHCP {
			backend = "dhcp"
		}
		fmt.Printf("%-12s %6d %3s %-8s %9s %6s %6s %5.0f%%\n",
			p.Name, p.ASN, p.Country, backend,
			fmt.Sprintf("/%d", p.DelegatedLen),
			fmt.Sprintf("/%d", p.PoolLen6),
			fmt.Sprintf("/%d", p.PoolLen4),
			100*p.DualStackFrac)
	}
	return nil
}

func cmdGen(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("gen: need a dataset kind (atlas or cdn)")
	}
	kind := args[0]
	fs := newFlagSet("gen " + kind)
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("o", "-", "output file (default stdout; written atomically)")
	metrics := fs.String("metrics", "", "dump pipeline metrics (JSON) to this file")
	switch kind {
	case "atlas":
		profileName := fs.String("profile", "DTAG", "ISP profile name")
		probes := fs.Int("probes", 100, "number of probes")
		hours := fs.Int64("hours", 17520, "simulated horizon in hours")
		raw := fs.Bool("raw", false, "emit hourly records instead of RLE series")
		bngURL := fs.String("bng", "", "pull the ground-truth profile from a live serve-bng daemon at this base URL instead of a built-in profile")
		bngGroup := fs.String("bng-group", "", "subscriber group to model when -bng is set (default: the daemon's first group)")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		or, err := startObs(*metrics, "")
		if err != nil {
			return err
		}
		if *bngURL != "" {
			var profile isp.Profile
			if profile, err = bngProfile(*bngURL, *bngGroup); err == nil {
				err = genAtlasProfile(profile, *probes, *hours, *seed, *raw, *out, or.o)
			}
		} else {
			err = genAtlas(*profileName, *probes, *hours, *seed, *raw, *out, or.o)
		}
		if ferr := or.finish(); err == nil {
			err = ferr
		}
		return err
	case "cdn":
		days := fs.Int("days", 150, "collection window in days")
		scale := fs.Float64("scale", 1, "population scale factor")
		workers := fs.Int("workers", 0, "per-operator generation fan-out, 0 = all CPUs (output is identical for any value)")
		ckpt := fs.String("checkpoint", "", "journal completed operators under this directory; resumable with 'dynamips resume'")
		spillDir := fs.String("spill-dir", "", "directory for the per-operator spill files (default: the checkpoint directory's spill/, or a temp dir)")
		pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
		bngURL := fs.String("bng", "", "pull the operator set from a live serve-bng daemon at this base URL instead of the built-ins")
		if err := fs.Parse(args[1:]); err != nil {
			return err
		}
		if *bngURL != "" && *ckpt != "" {
			return fmt.Errorf("gen cdn: -bng is incompatible with -checkpoint (a remote daemon's state cannot be journaled into a resumable spec)")
		}
		var ops []cdn.Operator
		if *bngURL != "" {
			var err error
			if ops, err = bngOperators(*bngURL); err != nil {
				return err
			}
		}
		spec := runSpec{Kind: "gen-cdn", Out: *out, Seed: *seed, Days: *days, Scale: *scale,
			Workers: *workers, SpillDir: *spillDir}
		run, err := openCheckpoint(*ckpt, spec)
		if err != nil {
			return err
		}
		defer run.Close()
		or, err := startObs(*metrics, *pprofAddr)
		if err != nil {
			return err
		}
		err = runGenCDNSpec(spec, run, ops, or.o)
		if ferr := or.finish(); err == nil {
			err = ferr
		}
		return err
	default:
		return fmt.Errorf("gen: unknown dataset kind %q", kind)
	}
}

func genAtlas(profileName string, probes int, hours, seed int64, raw bool, out string, o *obs.Observer) error {
	profile, ok := isp.ProfileByName(profileName)
	if !ok {
		return fmt.Errorf("unknown profile %q (see 'dynamips profiles')", profileName)
	}
	return genAtlasProfile(profile, probes, hours, seed, raw, out, o)
}

func genAtlasProfile(profile isp.Profile, probes int, hours, seed int64, raw bool, out string, o *obs.Observer) error {
	span := o.StartSpan("gen/atlas")
	res, err := isp.Run(isp.Config{Profile: profile, Subscribers: probes * 2, Hours: hours, Seed: seed})
	if err != nil {
		return err
	}
	fleet, err := atlas.BuildFleet(res, atlas.DefaultFleetConfig(probes, seed+1))
	if err != nil {
		return err
	}
	o.Advance(int64(len(fleet.Series)))
	span.End()
	o.Counter("gen_series", obs.L("as", profile.Name)).Add(int64(len(fleet.Series)))
	return writeOutput(out, func(w io.Writer) error {
		if raw {
			for i := range fleet.Series {
				if err := echo.WriteRecords(w, fleet.Series[i].Expand()); err != nil {
					return err
				}
			}
			return nil
		}
		return echo.WriteSeries(w, fleet.Series)
	})
}

// runGenCDNSpec generates the CDN dataset for spec, streaming each
// operator through a binary spill file (bounded memory). ops, when
// non-nil, overrides the built-in operator set (the -bng path); it is
// always nil on the checkpoint/resume path, which only ever replays
// built-ins.
func runGenCDNSpec(spec runSpec, run *checkpoint.Run, ops []cdn.Operator, o *obs.Observer) error {
	run.SetObserver(o)
	cfg := cdn.DefaultGenConfig(spec.Seed)
	cfg.Days = spec.Days
	cfg.Scale = spec.Scale
	cfg.Workers = spec.Workers
	cfg.Checkpoint = run
	cfg.Obs = o
	cfg.Operators = ops
	return writeOutput(spec.Out, func(w io.Writer) error {
		return stream.Generate(stream.GenConfig{Gen: cfg, SpillDir: spec.SpillDir}, w)
	})
}

// cmdAnalyzeCDN reruns the CDN analyses on an association CSV:
// durations, degrees, trailing zeros. Without the generator's BGP
// table, operators are unavailable, so the output covers the label-based
// splits only. The input is hash-partitioned by /24 into shard spill
// files and analyzed shard by shard in bounded memory.
func cmdAnalyzeCDN(args []string) error {
	fs := newFlagSet("analyze-cdn")
	threshold := fs.Int("mobile-threshold", 350, "unique-/64 degree above which a /24 is labeled mobile")
	pfx2as := fs.String("pfx2as", "", "pfx2as file for per-operator attribution (optional)")
	out := fs.String("o", "-", "report output file (default stdout; written atomically)")
	metrics := fs.String("metrics", "", "dump pipeline metrics (JSON) to this file")
	shards := fs.Int("shards", stream.DefaultShards, "partition width (peak memory scales as input/shards)")
	spillDir := fs.String("spill-dir", "", "directory for the shard spill files (default: the checkpoint directory's spill/, or a temp dir)")
	ckpt := fs.String("checkpoint", "", "journal completed shards under this directory; resumable with 'dynamips resume'")
	workers := fs.Int("workers", 0, "per-shard analyze fan-out, 0 = all CPUs (report is identical for any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze-cdn: need one association CSV file")
	}
	spec := runSpec{Kind: "analyze-cdn", In: fs.Arg(0), Out: *out,
		Threshold: *threshold, Pfx2as: *pfx2as, Workers: *workers,
		Shards: *shards, SpillDir: *spillDir}
	run, err := openCheckpoint(*ckpt, spec)
	if err != nil {
		return err
	}
	defer run.Close()
	or, err := startObs(*metrics, "")
	if err != nil {
		return err
	}
	err = runAnalyzeCDNSpec(spec, run, or.o)
	if ferr := or.finish(); err == nil {
		err = ferr
	}
	return err
}

// runAnalyzeCDNSpec executes an analyze-cdn invocation (fresh or
// resumed): it shards the input under the optional checkpoint run and
// renders the report atomically.
func runAnalyzeCDNSpec(spec runSpec, run *checkpoint.Run, o *obs.Observer) error {
	run.SetObserver(o)
	var table *bgp.Table
	if spec.Pfx2as != "" {
		pf, err := os.Open(spec.Pfx2as)
		if err != nil {
			return fmt.Errorf("opening pfx2as: %w", err)
		}
		table, err = bgp.ReadPfx2as(pf)
		pf.Close()
		if err != nil {
			return err
		}
	}
	rep, err := stream.Analyze(stream.AnalyzeConfig{
		In: spec.In, Shards: spec.Shards, Workers: spec.Workers,
		Threshold: spec.Threshold, Table: table, SpillDir: spec.SpillDir,
		Checkpoint: run, Obs: o,
	})
	if err != nil {
		return err
	}
	return writeOutput(spec.Out, rep.Render)
}

func cmdAnalyze(args []string) error {
	fs := newFlagSet("analyze")
	pfx2as := fs.String("pfx2as", "", "pfx2as file for BGP classification (optional)")
	format := fs.String("format", "series", "input format: series (RLE JSONL), records (hourly JSONL), or ripe (RIPE Atlas results)")
	epoch := fs.Int64("epoch", 1409529600, "unix time of hour 0 for -format ripe; earlier results are skipped (default: 2014-09-01, the paper's window start)")
	out := fs.String("o", "-", "report output file (default stdout; written atomically)")
	metrics := fs.String("metrics", "", "dump pipeline metrics (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: need one dataset file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("opening dataset: %w", err)
	}
	defer f.Close()
	var series []echo.Series
	switch *format {
	case "series":
		series, err = echo.ReadSeries(bufio.NewReader(f))
	case "records":
		var recs []echo.Record
		recs, err = echo.ReadRecords(bufio.NewReader(f))
		if err == nil {
			series = echo.Compress(recs)
		}
	case "ripe":
		var recs []echo.Record
		recs, err = atlas.ReadRIPEResults(bufio.NewReader(f), *epoch)
		if err == nil {
			series = echo.Compress(recs)
		}
	default:
		return fmt.Errorf("analyze: unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	table := &bgp.Table{}
	if *pfx2as != "" {
		pf, err := os.Open(*pfx2as)
		if err != nil {
			return fmt.Errorf("opening pfx2as: %w", err)
		}
		table, err = bgp.ReadPfx2as(pf)
		pf.Close()
		if err != nil {
			return err
		}
	} else {
		// Without a routing table, classify by the probes' own ASNs so
		// sanitization still works at AS granularity.
		for _, s := range series {
			for _, sp := range s.V4 {
				p, err := sp.Echo.Prefix(8)
				if err == nil {
					table.Announce(p, s.Probe.ASN)
				}
			}
			for _, sp := range s.V6 {
				p, err := sp.Echo.Prefix(20)
				if err == nil {
					table.Announce(p, s.Probe.ASN)
				}
			}
		}
	}
	or, err := startObs(*metrics, "")
	if err != nil {
		return err
	}
	err = writeOutput(*out, func(w io.Writer) error {
		return analyzeReport(w, series, table, or.o)
	})
	if ferr := or.finish(); err == nil {
		err = ferr
	}
	return err
}

func analyzeReport(w io.Writer, series []echo.Series, table *bgp.Table, o *obs.Observer) error {
	sanSpan := o.StartSpan("analyze/sanitize")
	sc := atlas.DefaultSanitizeConfig()
	sc.Obs = o
	clean := atlas.Sanitize(series, table, sc)
	o.Advance(int64(len(series)))
	sanSpan.End()
	fmt.Fprintf(w, "probes: %d in, %d clean, drops: %v, splits: %d\n",
		len(series), len(clean.Clean), clean.Drops, clean.VirtualSplits)

	anaSpan := o.StartSpan("analyze/extract")
	pas := core.Analyze(clean.Clean, core.DefaultExtractConfig())
	o.Advance(int64(len(clean.Clean)))
	anaSpan.End()
	o.Counter("atlas_probes_analyzed").Add(int64(len(pas)))
	rows := core.Table1(pas, nil)
	fmt.Fprintf(w, "\n%-12s %6s %8s %9s %9s %17s %9s\n",
		"AS", "ASN", "probes", "v4chg", "DSprobes", "DS v4chg (share)", "v6chg")
	for _, r := range rows {
		fmt.Fprintln(w, r.String())
	}

	durations := core.CollectDurations(pas)
	periodic := core.DetectPeriodicRenumbering(durations, 0.05, 0.3)
	if len(periodic) > 0 {
		fmt.Fprintln(w, "\nperiodic renumbering detected:")
		for _, p := range periodic {
			fmt.Fprintf(w, "  AS%-8d %-7s", p.ASN, p.Population)
			for _, m := range p.Modes {
				fmt.Fprintf(w, " %gh(%.0f%%)", m.Period, 100*m.Fraction)
			}
			fmt.Fprintln(w)
		}
	}

	perAS, pooled := core.SubscriberLengths(pas)
	if pooled.N > 0 {
		fmt.Fprintln(w, "\ninferred subscriber prefix lengths:")
		asns := make([]uint32, 0, len(perAS))
		for asn := range perAS {
			asns = append(asns, asn)
		}
		sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
		for _, asn := range asns {
			h := perAS[asn]
			fmt.Fprintf(w, "  AS%-8d mode=/%d over %d probes\n", asn, h.ArgMax(), h.N)
		}
	}
	return nil
}

// experimentFlags are the raw 'dynamips experiment' flag values before
// normalization.
type experimentFlags struct {
	name        string
	out         string
	asJSON      bool
	seed        int64
	hours       int64
	probeScale  float64
	cdnScale    float64
	cdnDays     int
	workers     int
	faults      string
	relayHops   int
	relayFaults string
}

// experimentSpec validates and normalizes raw experiment flags into the
// manifest-keyed runSpec, before any pipeline is built. Fault profiles are
// parsed and re-rendered in canonical form so equivalent spellings share a
// checkpoint key.
func experimentSpec(f experimentFlags) (runSpec, error) {
	if f.name != "all" && !slices.Contains(experiments.Names, f.name) {
		return runSpec{}, fmt.Errorf("experiment: unknown experiment %q (one of %v or 'all')", f.name, experiments.Names)
	}
	if f.asJSON && !slices.Contains(experiments.Figures, f.name) {
		return runSpec{}, fmt.Errorf("experiment: -json needs a figure (one of %v), got %q", experiments.Figures, f.name)
	}
	// The pipelines would silently turn a non-positive size into their
	// default, so an invalid size would print the default run's output.
	if f.hours <= 0 {
		return runSpec{}, fmt.Errorf("experiment: -hours must be positive, got %d", f.hours)
	}
	if f.cdnDays <= 0 {
		return runSpec{}, fmt.Errorf("experiment: -cdn-days must be positive, got %d", f.cdnDays)
	}
	for _, sc := range []struct {
		flag string
		v    float64
	}{{"-probe-scale", f.probeScale}, {"-cdn-scale", f.cdnScale}} {
		if math.IsNaN(sc.v) || math.IsInf(sc.v, 0) || sc.v <= 0 {
			return runSpec{}, fmt.Errorf("experiment: %s %v is not a positive finite factor", sc.flag, sc.v)
		}
	}
	faultSpec := ""
	if f.faults != "" {
		prof, err := faultnet.ParseProfile(f.faults)
		if err != nil {
			return runSpec{}, fmt.Errorf("experiment: %w", err)
		}
		faultSpec = prof.String()
	}
	if f.relayHops < 0 {
		return runSpec{}, fmt.Errorf("experiment: -relay-hops must be >= 0, got %d", f.relayHops)
	}
	relaySpec := ""
	if f.relayFaults != "" {
		if f.relayHops == 0 {
			return runSpec{}, fmt.Errorf("experiment: -relay-faults needs -relay-hops > 0")
		}
		prof, err := faultnet.ParseProfile(f.relayFaults)
		if err != nil {
			return runSpec{}, fmt.Errorf("experiment: -relay-faults: %w", err)
		}
		relaySpec = prof.String()
	}
	return runSpec{
		Kind: "experiment", Name: f.name, Out: f.out, JSON: f.asJSON,
		Seed: f.seed, Hours: f.hours, ProbeScale: f.probeScale,
		CDNScale: f.cdnScale, CDNDays: f.cdnDays, Faults: faultSpec,
		RelayHops: f.relayHops, RelayFaults: relaySpec, Workers: f.workers,
	}, nil
}

func cmdExperiment(args []string) error {
	fs := newFlagSet("experiment")
	seed := fs.Int64("seed", 20201201, "pipeline seed")
	hours := fs.Int64("hours", 50400, "Atlas horizon in hours")
	probeScale := fs.Float64("probe-scale", 1, "probe count multiplier")
	cdnScale := fs.Float64("cdn-scale", 1, "CDN population multiplier")
	cdnDays := fs.Int("cdn-days", 150, "CDN window in days")
	workers := fs.Int("workers", 0, "pipeline build fan-out, 0 = all CPUs (output is identical for any value)")
	faults := fs.String("faults", "", "fault profile, e.g. drop=0.1,dup=0.02,delay=0.05:200-1500 (empty = perfect network)")
	relayHops := fs.Int("relay-hops", 0, "route assignment exchanges through this many aggregation relay hops (0 = direct)")
	relayFaults := fs.String("relay-faults", "", "per-relay-hop fault profile (same syntax as -faults; empty reuses -faults; needs -relay-hops)")
	asJSON := fs.Bool("json", false, "emit the figure's data series as JSON ("+strings.Join(experiments.Figures, "/")+")")
	out := fs.String("o", "-", "output file (default stdout; written atomically)")
	ckpt := fs.String("checkpoint", "", "journal completed pipeline units under this directory; resumable with 'dynamips resume'")
	metrics := fs.String("metrics", "", "dump pipeline metrics (JSON) to this file; byte-identical for any -workers value")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("experiment: need a name (one of %v) or 'all'", experiments.Names)
	}
	spec, err := experimentSpec(experimentFlags{
		name: fs.Arg(0), out: *out, asJSON: *asJSON,
		seed: *seed, hours: *hours, probeScale: *probeScale,
		cdnScale: *cdnScale, cdnDays: *cdnDays, workers: *workers,
		faults: *faults, relayHops: *relayHops, relayFaults: *relayFaults,
	})
	if err != nil {
		return err
	}
	run, err := openCheckpoint(*ckpt, spec)
	if err != nil {
		return err
	}
	defer run.Close()
	or, err := startObs(*metrics, *pprofAddr)
	if err != nil {
		return err
	}
	err = runExperimentSpec(spec, run, or.o)
	if ferr := or.finish(); err == nil {
		err = ferr
	}
	return err
}

// runExperimentSpec executes an experiment invocation (fresh or resumed):
// builds whichever pipelines the experiment needs under the optional
// checkpoint run, and writes the full report atomically.
func runExperimentSpec(spec runSpec, run *checkpoint.Run, o *obs.Observer) error {
	run.SetObserver(o)
	cfg := experiments.Config{
		Seed: spec.Seed, Hours: spec.Hours, ProbeScale: spec.ProbeScale,
		CDNScale: spec.CDNScale, CDNDays: spec.CDNDays, Workers: spec.Workers,
		Checkpoint: run, Obs: o,
	}
	if spec.Faults != "" {
		prof, err := faultnet.ParseProfile(spec.Faults)
		if err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
		cfg.Faults = &prof
	}
	cfg.RelayHops = spec.RelayHops
	if spec.RelayFaults != "" {
		prof, err := faultnet.ParseProfile(spec.RelayFaults)
		if err != nil {
			return fmt.Errorf("experiment: -relay-faults: %w", err)
		}
		cfg.RelayFaults = &prof
	}
	// The names to run: one, or all of them in order under headers.
	all := spec.Name == "all"
	names := []string{spec.Name}
	if all {
		names = experiments.Names
	}
	// Build each pipeline the names need once (journaled, when
	// checkpointed), then render everything into one atomic output.
	var (
		a   *experiments.AtlasData
		c   *experiments.CDNData
		err error
	)
	for _, n := range names {
		if experiments.NeedsAtlas(n) && a == nil {
			a, err = experiments.BuildAtlas(cfg)
		} else if !experiments.NeedsAtlas(n) && c == nil {
			c, err = experiments.BuildCDN(cfg)
		}
		if err != nil {
			return err
		}
	}
	return writeOutput(spec.Out, func(w io.Writer) error {
		if spec.JSON {
			return experiments.WriteFigureJSON(w, spec.Name, a, c)
		}
		for _, n := range names {
			if all {
				fmt.Fprintf(w, "==== %s ====\n", n)
			}
			if experiments.NeedsAtlas(n) {
				err = experiments.RunAtlasExperiment(n, w, a)
			} else {
				err = experiments.RunCDNExperiment(n, w, c)
			}
			if err != nil {
				if all {
					return fmt.Errorf("experiment %s: %w", n, err)
				}
				return err
			}
			if all {
				fmt.Fprintln(w)
			}
		}
		return nil
	})
}

// cmdResume replays an interrupted (or completed) checkpointed run: the
// manifest's recorded command is re-dispatched against the same journal
// directory, completed units are decoded instead of recomputed, and the
// output is rewritten atomically — byte-identical to an uninterrupted run.
func cmdResume(args []string) error {
	fs := newFlagSet("resume")
	workers := fs.Int("workers", -1, "override the recorded worker count (output is identical for any value); -1 keeps the recorded value")
	metrics := fs.String("metrics", "", "dump pipeline metrics (JSON) to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address for the run's duration")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("resume: need one checkpoint directory")
	}
	run, err := checkpoint.Resume(fs.Arg(0), logf)
	if err != nil {
		return err
	}
	defer run.Close()
	var spec runSpec
	if err := json.Unmarshal(run.Command(), &spec); err != nil {
		return fmt.Errorf("resume: manifest command record: %w", err)
	}
	key, err := specKey(spec)
	if err != nil {
		return err
	}
	if key != run.Key() {
		return fmt.Errorf("resume: manifest key does not match its own command record (corrupt checkpoint)")
	}
	if *workers >= 0 {
		spec.Workers = *workers
	}
	logf("resuming %s run (seed %d) into %s", spec.Kind, spec.Seed, spec.Out)
	or, err := startObs(*metrics, *pprofAddr)
	if err != nil {
		return err
	}
	switch spec.Kind {
	case "experiment":
		err = runExperimentSpec(spec, run, or.o)
	case "gen-cdn":
		err = runGenCDNSpec(spec, run, nil, or.o)
	case "analyze-cdn":
		err = runAnalyzeCDNSpec(spec, run, or.o)
	default:
		err = fmt.Errorf("resume: manifest records unknown command kind %q", spec.Kind)
	}
	if ferr := or.finish(); err == nil {
		err = ferr
	}
	return err
}

func cmdServeEcho(args []string) error {
	fs := newFlagSet("serve-echo")
	listen := fs.String("listen", "127.0.0.1:8080", "listen address")
	grace := fs.Duration("grace", 5*time.Second, "graceful shutdown drain deadline")
	metrics := fs.String("metrics", "", "dump request counters (JSON) to this file at shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address alongside the echo server")
	if err := fs.Parse(args); err != nil {
		return err
	}
	or, err := startObs(*metrics, *pprofAddr)
	if err != nil {
		return err
	}
	srv, err := atlas.StartEchoServerObs(*listen, or.o)
	if err != nil {
		return err
	}
	fmt.Printf("IP echo server on %s (GET returns %s header)\n", srv.Addr(), atlas.EchoHeader)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig)
	fmt.Printf("received %v; draining connections (max %s)\n", s, *grace)
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	err = srv.Shutdown(ctx)
	if ferr := or.finish(); err == nil {
		err = ferr
	}
	return err
}
