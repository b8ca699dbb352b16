package stream

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"dynamips/internal/bgp"
	"dynamips/internal/cdn"
	"dynamips/internal/checkpoint"
	"dynamips/internal/core"
	"dynamips/internal/netutil"
	"dynamips/internal/obs"
	"dynamips/internal/sketch"
	"dynamips/internal/stats"
)

// DefaultShards is the analyze partition width: peak memory is roughly
// input/shards per worker, so 64 keeps a 10⁸-record run in tens of
// megabytes per shard.
const DefaultShards = 64

// AnalyzeConfig configures the streaming analyze path.
type AnalyzeConfig struct {
	// In is the association CSV path (the partition phase may read it
	// more than once across resumes, so it is a path, not a reader).
	In string
	// Shards is the /24-hash partition width; <= 0 uses DefaultShards.
	// It participates in resume correctness: the checkpoint key must
	// change when it does.
	Shards int
	// Workers bounds the per-shard fan-out (0 = all CPUs); the report
	// is identical for any value.
	Workers int
	// Threshold is the unique-/64 degree above which a /24 is mobile.
	Threshold int
	// Table, when non-nil, attributes episodes to operators.
	Table *bgp.Table
	// SpillDir overrides where shard and run files live.
	SpillDir string
	// Checkpoint, when non-nil, journals the partition and shard units.
	Checkpoint *checkpoint.Run
	// Obs receives the analyze span, counters, and shard throughput.
	Obs *obs.Observer
}

// partMeta journals the partition phase: every shard file with its size
// and record count, plus the input total.
type partMeta struct {
	Records int64
	Files   []string
	Sizes   []int64
	Counts  []int64
}

// shardMeta journals one shard unit: its sorted run file, the per-/24
// degree summaries (complete, because a /24 maps to exactly one shard),
// and the shard's encoded sketch partial. Journals written before the
// sketch plane existed carry a nil Sketch; decShard rejects those, and
// checkpoint.Stage answers by recomputing the unit.
type shardMeta struct {
	File    string
	Size    int64
	Records int64
	Sums    []k24Sum
	Sketch  []byte
}

// k24Sum is one /24's degree: its distinct-/64 count.
type k24Sum struct {
	K24  uint32
	Uniq int64
}

// Analyze runs the sharded streaming analysis over a CSV association
// file and returns the same Report the in-memory oracle
// (cdn.BuildReport) produces — byte-identical once rendered — without
// ever materializing more than one shard per worker.
//
// Three phases: partition hash-splits the input by /24 key into shard
// spill files (one journal unit); each shard unit sorts its records to
// extract per-/24 degree summaries and writes a (K64, Day, K24, Hits)
// sorted run (one journal unit each); the reduce phase derives mobile
// labels from the merged summaries, then k-way-merges the runs to scan
// episodes, durations, and per-/64 trailing zeros in one bounded pass.
func Analyze(cfg AnalyzeConfig) (*cdn.Report, error) {
	if cfg.In == "" {
		return nil, errNoInput
	}
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultShards
	}
	dir, temp, err := ensureSpillDir(cfg.SpillDir, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}
	if temp {
		defer os.RemoveAll(dir)
	}
	az := &analyzer{cfg: cfg, dir: dir}
	span := cfg.Obs.StartSpan("analyze-cdn")
	parts, err := checkpoint.Stage(cfg.Checkpoint, "cdn-stream-part", 1, 1,
		az.partition, checkpoint.GobEncode[partMeta], az.decPart)
	if err != nil {
		return nil, err
	}
	az.part = parts[0]
	shards, err := checkpoint.Stage(cfg.Checkpoint, "cdn-stream-shard", cfg.Shards, cfg.Workers,
		az.shard, checkpoint.GobEncode[shardMeta], az.decShard)
	if err != nil {
		return nil, err
	}
	rep, err := az.reduce(shards)
	if err != nil {
		return nil, err
	}
	cfg.Obs.Advance(az.part.Records)
	span.End()
	return rep, nil
}

type analyzer struct {
	cfg  AnalyzeConfig
	dir  string
	part partMeta
}

// partition streams the input CSV once, routing each record to its
// shard's spill file. Blocks of the input parse on the workers; records
// route in input order, so every shard file's bytes are those of a
// serial scan.
func (az *analyzer) partition(_ int) (partMeta, error) {
	in, err := os.Open(az.cfg.In)
	if err != nil {
		return partMeta{}, wrap("stream: opening associations", err)
	}
	defer in.Close()
	n := az.cfg.Shards
	p := &partitioner{shards: make([]*spillFile, n), counts: make([]int64, n)}
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = "shard-" + strconv.Itoa(i) + ".bin"
		sf, err := createSpill(filepath.Join(az.dir, names[i]), az.cfg.Checkpoint != nil)
		if err != nil {
			p.abortAll()
			return partMeta{}, err
		}
		p.shards[i] = sf
	}
	if err := cdn.ScanCSVBlocks(in, az.cfg.Workers, p.route); err != nil {
		p.abortAll()
		return partMeta{}, err
	}
	sizes := make([]int64, n)
	for i := 0; i < n; i++ {
		sz, err := p.shards[i].finish()
		p.shards[i] = nil
		if err != nil {
			p.abortAll()
			return partMeta{}, err
		}
		sizes[i] = sz
	}
	return partMeta{Records: p.total, Files: names, Sizes: sizes, Counts: p.counts}, nil
}

func (az *analyzer) decPart(b []byte) (partMeta, error) {
	m, err := checkpoint.GobDecode[partMeta](b)
	if err != nil {
		return partMeta{}, err
	}
	if len(m.Files) != az.cfg.Shards || len(m.Sizes) != az.cfg.Shards || len(m.Counts) != az.cfg.Shards {
		return partMeta{}, errSpillChanged
	}
	for i := range m.Files {
		if err := validateSpill(filepath.Join(az.dir, m.Files[i]), m.Sizes[i]); err != nil {
			return partMeta{}, err
		}
	}
	return m, nil
}

// shard processes one shard: load, sort into the analysis order, derive
// the degree summaries, and write the sorted run.
func (az *analyzer) shard(si int) (shardMeta, error) {
	recs, err := readSpill(filepath.Join(az.dir, az.part.Files[si]), az.part.Counts[si])
	if err != nil {
		return shardMeta{}, err
	}
	slices.SortFunc(recs, cmpEpisode)
	sums := summarize(recs)
	name := "run-" + strconv.Itoa(si) + ".bin"
	sf, err := createSpill(filepath.Join(az.dir, name), az.cfg.Checkpoint != nil)
	if err != nil {
		return shardMeta{}, err
	}
	for i := range recs {
		if err := sf.cw.Append(recs[i]); err != nil {
			sf.abort()
			return shardMeta{}, err
		}
	}
	size, err := sf.finish()
	if err != nil {
		return shardMeta{}, err
	}
	return shardMeta{File: name, Size: size, Records: int64(len(recs)), Sums: sums,
		Sketch: buildShardSketch(recs, sums)}, nil
}

func (az *analyzer) decShard(b []byte) (shardMeta, error) {
	m, err := checkpoint.GobDecode[shardMeta](b)
	if err != nil {
		return shardMeta{}, err
	}
	if err := validateSpill(filepath.Join(az.dir, m.File), m.Size); err != nil {
		return shardMeta{}, err
	}
	if _, err := sketch.DecodeSet(m.Sketch); err != nil {
		return shardMeta{}, err
	}
	return m, nil
}

// summarize counts the distinct /64s of every /24 in a shard sorted by
// cmpEpisode. The order is K64-major, so each /64's records are one run:
// every distinct /24 of a run is one (/24, /64) pair, and a /24's degree
// is the number of runs it appears in. Summaries come out K24-ascending.
func summarize(recs []cdn.Association) []k24Sum {
	var pairs, run []uint32 // one /24 per distinct pair; one run's /24s
	i := 0
	for i < len(recs) {
		k64 := recs[i].K64
		run = append(run[:0], recs[i].K24)
		j := i + 1
		for ; j < len(recs) && recs[j].K64 == k64; j++ {
			if recs[j].K24 != recs[j-1].K24 {
				run = append(run, recs[j].K24)
			}
		}
		if len(run) > 1 {
			slices.Sort(run)
			run = slices.Compact(run)
		}
		pairs = append(pairs, run...)
		i = j
	}
	slices.Sort(pairs)
	var out []k24Sum
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		out = append(out, k24Sum{K24: pairs[i], Uniq: int64(j - i)})
		i = j
	}
	return out
}

// reduce derives the report: mobile labels and degree peaks from the
// shard summaries, then one merged pass over the sorted runs for
// episodes, durations, and trailing zeros.
func (az *analyzer) reduce(shards []shardMeta) (*cdn.Report, error) {
	o := az.cfg.Obs
	o.Counter("cdn_assocs_filtered").Add(az.part.Records)
	o.Counter("cdn_stream_shards").Add(int64(len(shards)))
	shardHist := o.Histogram("cdn_stream_shard_records", unitBounds)
	mobile := make(map[uint32]bool)
	mu := stats.NewLogHistogram(4)
	fu := stats.NewLogHistogram(4)
	paths := make([]string, len(shards))
	for i := range shards {
		shardHist.Observe(shards[i].Records)
		paths[i] = filepath.Join(az.dir, shards[i].File)
		for _, s := range shards[i].Sums {
			if s.Uniq > int64(az.cfg.Threshold) {
				mobile[s.K24] = true
				mu.Add(float64(s.Uniq), 1)
			} else {
				fu.Add(float64(s.Uniq), 1)
			}
		}
	}

	sk, err := mergeShardSketches(shards)
	if err != nil {
		return nil, err
	}
	m, err := newMerger(paths)
	if err != nil {
		return nil, err
	}
	defer m.close()
	red := &reducer{
		gap:      cdn.DefaultEpisodeConfig().MaxGapDays,
		mobile:   mobile,
		table:    az.cfg.Table,
		perOp:    make(map[uint32]*durCounts),
		zeros:    &core.TrailingZeroBuckets{Counts: make(map[int]int)},
		skFixed:  sk.Quantile(sketch.DurFixed),
		skMobile: sk.Quantile(sketch.DurMobile),
	}
	for {
		a, ok, err := m.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		red.record(a)
	}
	red.finish()
	o.Counter("cdn_episodes").Add(int64(red.episodes))

	r := &cdn.Report{
		Assocs:     int(az.part.Records),
		Episodes:   red.episodes,
		Fixed:      red.fixedDur.box(),
		Mobile:     red.mobileDur.box(),
		MobilePeak: mu.PeakX(),
		FixedPeak:  fu.PeakX(),
		Zeros:      red.zeros,
		Sketches:   sk,
	}
	if az.cfg.Table != nil {
		r.PerOperator = true
		slices.Sort(red.asns)
		for _, asn := range red.asns {
			r.PerOp = append(r.PerOp, cdn.OperatorDurations{
				ASN: asn, Name: az.cfg.Table.Name(asn), Box: red.perOp[asn].box(),
			})
		}
	}
	return r, nil
}

// durCounts is a duration multiset as per-value counts (durations are
// small ints bounded by the window length), convertible to the same
// nearest-rank box stats the oracle computes from the expanded list.
type durCounts struct {
	counts []int64 // index = duration in days
	n      int64
}

func (d *durCounts) add(days int) {
	for len(d.counts) <= days {
		d.counts = append(d.counts, 0)
	}
	d.counts[days]++
	d.n++
}

func (d *durCounts) box() stats.BoxStats {
	if d.n == 0 {
		return stats.BoxStats{}
	}
	vals := make([]float64, 0, len(d.counts))
	cnts := make([]int64, 0, len(d.counts))
	for v, c := range d.counts {
		if c > 0 {
			vals = append(vals, float64(v))
			cnts = append(cnts, c)
		}
	}
	return stats.BoxOfCounts(vals, cnts)
}

// reducer consumes the merged record stream: the episode scan mirrors
// cdn.Episodes' split rules exactly, and the per-/64 grouping (the
// stream is K64-major) feeds the trailing-zero buckets with every /64
// that appeared at least once on a non-mobile /24.
type reducer struct {
	gap    int
	mobile map[uint32]bool
	table  *bgp.Table

	has            bool
	epK64          uint64
	epK24          uint32
	epMobile       bool
	epStart, epEnd int

	curK64   uint64
	anyFixed bool

	episodes  int
	fixedDur  durCounts
	mobileDur durCounts
	perOp     map[uint32]*durCounts
	asns      []uint32
	zeros     *core.TrailingZeroBuckets

	// skFixed and skMobile receive every episode duration; the barrier
	// is the only place episodes exist, so the duration sketches are
	// folded here rather than per shard.
	skFixed  *sketch.Quantile
	skMobile *sketch.Quantile
}

func (r *reducer) record(a cdn.Association) {
	switch {
	case !r.has:
		r.has = true
		r.curK64 = a.K64
		r.startEpisode(a)
	case a.K64 != r.curK64:
		r.endEpisode()
		r.endK64Group()
		r.curK64 = a.K64
		r.anyFixed = false
		r.startEpisode(a)
	case a.K24 != r.epK24 || int(a.Day)-r.epEnd > r.gap:
		r.endEpisode()
		r.startEpisode(a)
	default:
		if int(a.Day) > r.epEnd {
			r.epEnd = int(a.Day)
		}
	}
}

func (r *reducer) finish() {
	if !r.has {
		return
	}
	r.endEpisode()
	r.endK64Group()
}

// startEpisode opens an episode at a. Its /24 is fixed for the episode,
// so the /24's mobile label is read here once, for both the episode's
// duration class and its /64's trailing-zero eligibility.
func (r *reducer) startEpisode(a cdn.Association) {
	r.epK64 = a.K64
	r.epK24 = a.K24
	r.epMobile = r.mobile[a.K24]
	r.epStart = int(a.Day)
	r.epEnd = int(a.Day)
	if !r.epMobile {
		r.anyFixed = true
	}
}

func (r *reducer) endEpisode() {
	r.episodes++
	d := r.epEnd - r.epStart + 1
	if r.epMobile {
		r.mobileDur.add(d)
		r.skMobile.Add(float64(d))
	} else {
		r.fixedDur.add(d)
		r.skFixed.Add(float64(d))
	}
	if r.table != nil {
		if asn, _, ok := r.table.Origin(netutil.AddrFrom128(r.epK64, 0)); ok {
			dc := r.perOp[asn]
			if dc == nil {
				dc = &durCounts{}
				r.perOp[asn] = dc
				r.asns = append(r.asns, asn)
			}
			dc.add(d)
		}
	}
}

func (r *reducer) endK64Group() {
	if !r.anyFixed {
		return
	}
	r.zeros.Total++
	p := cdn.Association{K64: r.curK64}.P64()
	if l, ok := netutil.InferredDelegation(p); ok {
		r.zeros.Counts[l]++
		r.zeros.Inferable++
	}
}

// partitioner routes records to shard spill files during the partition
// phase.
type partitioner struct {
	shards []*spillFile
	counts []int64
	total  int64
}

// route appends one block's records to their shards' spill files.
func (p *partitioner) route(recs []cdn.Association) error {
	for i := range recs {
		si := shardOf(recs[i].K24, len(p.shards))
		p.counts[si]++
		if err := p.shards[si].cw.Append(recs[i]); err != nil {
			return err
		}
	}
	p.total += int64(len(recs))
	return nil
}

func (p *partitioner) abortAll() {
	for _, sf := range p.shards {
		if sf != nil {
			sf.abort()
		}
	}
}
