package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dynamips/internal/cdn"
	"dynamips/internal/cdn/stream"
	"dynamips/internal/experiments"
	"dynamips/internal/parallel"
	"dynamips/internal/sketch"
)

// cdnSize sizes the cdn-stream workload.
type cdnSize struct {
	scale     float64 // cdn.GenConfig.Scale of a rep
	days      int
	shards    int
	warmScale float64 // scale of the set-up's warm-up pass
}

// replayBatch is how many records one chunk-codec or CSV span of the
// traced replay covers: the codec's chunk size, so that span overhead
// stays a small share of the work it times.
const replayBatch = 4096

func (b *bench) cdnGen(scale float64) cdn.GenConfig {
	g := cdn.DefaultGenConfig(b.opt.seed)
	g.Scale = scale
	g.Days = b.opt.size.cdn.days
	g.Workers = benchWorkers
	return g
}

func (b *bench) analyzeConfig(dir string) stream.AnalyzeConfig {
	return stream.AnalyzeConfig{
		In:        filepath.Join(dir, "assocs.csv"),
		Shards:    b.opt.size.cdn.shards,
		Workers:   benchWorkers,
		Threshold: experiments.MobileDegreeThreshold,
		SpillDir:  filepath.Join(dir, "analyze"),
	}
}

// cdnRep is one pass of the streaming CDN path: stream.Generate writes
// the association CSV under dir and stream.Analyze reduces it. It
// returns the report and the digest of its rendering.
func (b *bench) cdnRep(dir string, gen cdn.GenConfig) (*cdn.Report, string, error) {
	err := writeFile(filepath.Join(dir, "assocs.csv"), func(w io.Writer) error {
		return stream.Generate(stream.GenConfig{Gen: gen, SpillDir: filepath.Join(dir, "gen")}, w)
	})
	if err != nil {
		return nil, "", err
	}
	rep, err := stream.Analyze(b.analyzeConfig(dir))
	if err != nil {
		return nil, "", err
	}
	var out bytes.Buffer
	if err := rep.Render(&out); err != nil {
		return nil, "", err
	}
	return rep, digest(out.Bytes()), nil
}

func (b *bench) cdnTimed() (timing, error) {
	var t timing
	dir := filepath.Join(b.tmp, "cdn-stream")
	warm := b.cdnGen(b.opt.size.cdn.warmScale)
	gen := b.cdnGen(b.opt.size.cdn.scale)
	var first string
	// Set-up is a warm-up pass at a small scale: it creates the spill
	// files the rep rewrites and pages in the code the rep runs.
	err := b.reps(&t, func() error {
		_, _, err := b.cdnRep(dir, warm)
		return err
	}, func() (float64, error) {
		rep, sum, err := b.cdnRep(dir, gen)
		if err != nil {
			return 0, err
		}
		b.led.sameDigest("cdn-stream report", &first, sum)
		return float64(rep.Assocs), nil
	}, nil)
	if err != nil {
		return t, err
	}
	b.notef("report_sha256 %s", first)
	if b.pinned() {
		b.led.check(first == b.exp.CDNStreamReport, "cdn-stream report digest %s, pinned %s", first, b.exp.CDNStreamReport)
	}
	return t, nil
}

// cdnTraced runs one traced rep: stream.Generate replayed from its layers
// (cdn.EmitOperator with Env.Keep, the chunk codec, cdn.AppendCSVRow),
// then stream.Analyze. Standalone passes over the rep's files then time
// the layers Analyze runs internally: the CSV scan and the sketch fold
// and merge.
func (b *bench) cdnTraced() (time.Duration, error) {
	dir := filepath.Join(b.tmp, "cdn-trace")
	gen := b.cdnGen(b.opt.size.cdn.scale)
	refDir := filepath.Join(dir, "reference")
	err := writeFile(filepath.Join(refDir, "assocs.csv"), func(w io.Writer) error {
		return stream.Generate(stream.GenConfig{Gen: gen, SpillDir: filepath.Join(refDir, "gen")}, w)
	})
	if err != nil {
		return 0, err
	}
	want, err := fileDigest(filepath.Join(refDir, "assocs.csv"))
	if err != nil {
		return 0, err
	}
	if err := os.RemoveAll(refDir); err != nil {
		return 0, err
	}

	tr := b.tr
	root := tr.begin("cdn-stream", 0, 0)
	gspan := tr.begin("stream.generate", root, 0)
	kept, err := b.replayGenerate(gspan, gen, dir)
	if err != nil {
		return 0, err
	}
	tr.end(gspan, kept)
	aspan := tr.begin("stream.analyze", root, 0)
	rep, err := stream.Analyze(b.analyzeConfig(dir))
	if err != nil {
		return 0, err
	}
	tr.end(aspan, int64(rep.Assocs))
	tr.end(root, int64(rep.Assocs))

	csvPath := filepath.Join(dir, "assocs.csv")
	got, err := fileDigest(csvPath)
	if err != nil {
		return 0, err
	}
	b.led.check(got == want, "cdn-stream: replayed generate wrote CSV %s, stream.Generate wrote %s", got, want)

	l := tr.breakdown(root)
	b.stageSum("trace.cdn_stream_residual_share", l, "stream.generate")
	generate, analyze := tr.duration(gspan).Seconds(), tr.duration(aspan).Seconds()
	b.layer("stream.generate_s", "s", generate)
	b.layer("stream.analyze_s", "s", analyze)
	enc, dec := l.perRecord("stream.chunk_encode"), l.perRecord("stream.chunk_decode")
	b.layer("cdn.emit_ns_per_rec", "ns", l.perRecord("cdn.emit"))
	b.layer("stream.chunk_encode_ns_per_rec", "ns", enc)
	b.layer("stream.chunk_decode_ns_per_rec", "ns", dec)
	b.layer("cdn.csv_encode_ns_per_rec", "ns", l.perRecord("cdn.csv_encode"))

	scan, err := probeScan(csvPath)
	if err != nil {
		return 0, err
	}
	b.layer("cdn.csv_scan_ns_per_rec", "ns", scan)
	// Analyze scans the CSV once and runs every record through the chunk
	// codec twice (shard spill, sorted run). What the standalone costs of
	// those leave of its time estimates sorting, the k-way merge, the
	// reduce and file I/O. It is not measured inside Analyze, and it is
	// clamped at 0 in case the standalone passes ran slower than there.
	records := float64(rep.Assocs)
	b.layer("stream.analyze_unattributed_s", "s", max(0, analyze-records*(scan+2*enc+2*dec)/1e9))
	if err := b.probeShards(filepath.Join(dir, "analyze")); err != nil {
		return 0, err
	}
	b.layer("stream.records", "count", records)
	csvBytes, err := dirBytes(dir, func(name string) bool { return name == "assocs.csv" })
	if err != nil {
		return 0, err
	}
	spillBytes, err := dirBytes(dir, func(name string) bool { return strings.HasSuffix(name, ".bin") })
	if err != nil {
		return 0, err
	}
	b.layer("stream.csv_bytes", "bytes", float64(csvBytes))
	b.layer("stream.spill_bytes", "bytes", float64(spillBytes))
	return tr.duration(root), os.RemoveAll(dir)
}

// replayGenerate does stream.Generate's work from its layers, under
// parent: every operator's filtered associations go through the chunk
// codec into a spill file (operators in parallel, as Generate runs
// them), then the spill files are re-encoded as CSV rows in operator
// order into dir/assocs.csv. It returns the records written.
func (b *bench) replayGenerate(parent int, gen cdn.GenConfig, dir string) (int64, error) {
	gen = gen.Normalized()
	if err := gen.Validate(); err != nil {
		return 0, err
	}
	spill := filepath.Join(dir, "gen")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		return 0, err
	}
	env := cdn.NewEnv(gen.OperatorSet())
	files, err := parallel.MapErr(len(env.Ops), benchWorkers, func(oi int) (string, error) {
		return b.replayOperator(parent, gen, env, oi, spill)
	})
	if err != nil {
		return 0, err
	}
	var kept int64
	err = writeFile(filepath.Join(dir, "assocs.csv"), func(w io.Writer) error {
		bw := bufio.NewWriterSize(w, 1<<16)
		if err := cdn.WriteCSVHeader(bw); err != nil {
			return err
		}
		for _, f := range files {
			n, err := b.replayCSV(parent, bw, f)
			if err != nil {
				return err
			}
			kept += n
		}
		return bw.Flush()
	})
	return kept, err
}

// replayOperator generates operator oi into its spill file.
func (b *bench) replayOperator(parent int, gen cdn.GenConfig, env *cdn.Env, oi int, dir string) (string, error) {
	tr := b.tr
	track := oi + 1
	path := filepath.Join(dir, "gen-"+strconv.Itoa(oi)+".bin")
	s := tr.begin("stream.spill_io", parent, track)
	f, err := os.Create(path)
	tr.end(s, 0)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<16)
	cw, err := stream.NewWriter(bw)
	if err != nil {
		return "", err
	}
	e := &replayEmitter{tr: tr, env: env, cw: cw, track: track, batch: make([]cdn.Association, 0, replayBatch)}
	e.span = tr.begin("cdn.emit", parent, track)
	err = cdn.EmitOperator(oi, gen, e.emit)
	if err == nil {
		err = e.encode()
	}
	tr.end(e.span, e.raw)
	if err != nil {
		return "", err
	}
	s = tr.begin("stream.chunk_encode", parent, track)
	err = cw.Flush()
	tr.end(s, 0)
	if err != nil {
		return "", err
	}
	s = tr.begin("stream.spill_io", parent, track)
	if err = bw.Flush(); err == nil {
		if err = f.Sync(); err == nil {
			err = f.Close()
		}
	}
	tr.end(s, 0)
	return path, err
}

// replayEmitter is EmitOperator's callback in the replay: it applies the
// ASN-mismatch filter and hands kept records to the chunk codec in
// batches, each batch under its own span.
type replayEmitter struct {
	tr          *tracer
	env         *cdn.Env
	cw          *stream.Writer
	span, track int
	batch       []cdn.Association
	raw         int64
}

func (e *replayEmitter) emit(a cdn.Association) error {
	e.raw++
	if !e.env.Keep(a) {
		return nil
	}
	e.batch = append(e.batch, a)
	if len(e.batch) == replayBatch {
		return e.encode()
	}
	return nil
}

func (e *replayEmitter) encode() error {
	s := e.tr.begin("stream.chunk_encode", e.span, e.track)
	defer func() { e.batch = e.batch[:0] }()
	for _, a := range e.batch {
		if err := e.cw.Append(a); err != nil {
			e.tr.end(s, 0)
			return err
		}
	}
	e.tr.end(s, int64(len(e.batch)))
	return nil
}

// replayCSV re-encodes one spill file as CSV rows into bw.
func (b *bench) replayCSV(parent int, bw *bufio.Writer, path string) (int64, error) {
	tr := b.tr
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := stream.NewReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return 0, err
	}
	batch := make([]cdn.Association, 0, replayBatch)
	row := make([]byte, 0, 64)
	var n int64
	for {
		s := tr.begin("stream.chunk_decode", parent, 0)
		batch, err = readBatch(r, batch[:0])
		tr.end(s, int64(len(batch)))
		if err != nil || len(batch) == 0 {
			return n, err
		}
		s = tr.begin("cdn.csv_encode", parent, 0)
		for _, a := range batch {
			row = cdn.AppendCSVRow(row[:0], a)
			if _, err := bw.Write(row); err != nil {
				tr.end(s, 0)
				return n, err
			}
		}
		tr.end(s, int64(len(batch)))
		n += int64(len(batch))
	}
}

// readBatch appends up to cap(dst) records from r.
func readBatch(r *stream.Reader, dst []cdn.Association) ([]cdn.Association, error) {
	for len(dst) < cap(dst) {
		a, ok, err := r.Next()
		if err != nil || !ok {
			return dst, err
		}
		dst = append(dst, a)
	}
	return dst, nil
}

// probeScan times cdn.ScanCSV over a CSV file, in nanoseconds per record.
func probeScan(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var n int64
	start := time.Now()
	err = cdn.ScanCSV(bufio.NewReaderSize(f, 1<<16), func(cdn.Association) error {
		n++
		return nil
	})
	return float64(time.Since(start).Nanoseconds()) / float64(max(n, 1)), err
}

// probeShards folds each of Analyze's shard spill files into a tail
// sketch set, then decodes and merges the encoded partials, as the
// stream barrier merges its per-shard partials. It also records the
// shards' size skew.
func (b *bench) probeShards(dir string) error {
	var parts [][]byte
	var sizes []float64
	var foldTime time.Duration
	var records int64
	for si := 0; si < b.opt.size.cdn.shards; si++ {
		path := filepath.Join(dir, "shard-"+strconv.Itoa(si)+".bin")
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		sizes = append(sizes, float64(info.Size()))
		recs, err := readSpill(path)
		if err != nil {
			return err
		}
		set := stream.NewTailSet()
		start := time.Now()
		for _, a := range recs {
			stream.FoldTail(set, a)
		}
		foldTime += time.Since(start)
		records += int64(len(recs))
		parts = append(parts, set.Encode())
	}
	start := time.Now()
	acc := stream.NewTailSet()
	for _, p := range parts {
		set, err := sketch.DecodeSet(p)
		if err != nil {
			return err
		}
		if err := acc.Merge(set); err != nil {
			return err
		}
	}
	merge := time.Since(start)
	var total, largest float64
	for _, s := range sizes {
		total += s
		largest = max(largest, s)
	}
	b.layer("sketch.fold_ns_per_rec", "ns", float64(foldTime.Nanoseconds())/float64(max(records, 1)))
	b.layer("sketch.merge_ms", "ms", merge.Seconds()*1e3)
	b.layer("stream.shard_skew", "ratio", largest/(total/float64(len(sizes))))
	return nil
}

func readSpill(path string) ([]cdn.Association, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := stream.NewReader(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, err
	}
	var out []cdn.Association
	for {
		a, ok, err := r.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, a)
	}
}

// writeFile creates path (and its directory), lets fill write it, and
// closes it, reporting the first error.
func writeFile(path string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes sums the sizes of the files under dir whose names match.
func dirBytes(dir string, match func(string) bool) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !match(d.Name()) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
